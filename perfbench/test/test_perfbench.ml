(* Tests of the benchmark itself: seeded replay, percentile support, the
   stall guard and the metric declarations. *)

module W = Crane_perfbench.Workloads
module Pct = Crane_perfbench.Pct
module Gen = Crane_perfbench.Gen
module Openloop = Crane_perfbench.Openloop
module Names = Crane_perfbench.Names
module Time = Crane_sim.Time
module Engine = Crane_sim.Engine

(* Everything modelled that a sysbench base-rate world yields: arrival
   schedule, latency percentiles, longest stall and every reply. *)
let modelled ~seed =
  W.drop_world ();
  let r = W.sysbench_rung ~seed 1000. in
  let samples, p50, p99 = W.base_latency r.out in
  Printf.sprintf "%d %.17g %.17g %d %s" samples p50 p99 (W.tally r.out).stall
    (String.concat "|"
       (Array.to_list
          (Array.map (fun (q : Crane_perfbench.Openloop.req) -> q.reply) r.out.reqs)))

let same_seed_identical () =
  Alcotest.(check string) "byte-identical" (modelled ~seed:7) (modelled ~seed:7)

let other_seed_differs () =
  Alcotest.(check bool) "seed 8 differs from seed 7" true
    (modelled ~seed:7 <> modelled ~seed:8);
  let a = Gen.poisson (Gen.stream ~seed:1 "x") ~rate:100. ~n:50
  and b = Gen.poisson (Gen.stream ~seed:2 "x") ~rate:100. ~n:50 in
  Alcotest.(check bool) "arrivals differ" true (a <> b)

let percentile_support () =
  let sample n = Array.init n (fun i -> i) in
  (* Nearest rank: 1000 samples leave exactly 10 beyond p99, 999 only 9. *)
  Alcotest.(check (option int)) "p99 of 1000" (Some 989) (Pct.quantile 0.99 (sample 1000));
  Alcotest.(check (option int)) "p99 of 999" None (Pct.quantile 0.99 (sample 999));
  Alcotest.(check (option int)) "p50 of 20" (Some 9) (Pct.quantile 0.5 (sample 20));
  Alcotest.(check (option int)) "p50 of 19" None (Pct.quantile 0.5 (sample 19));
  Alcotest.(check (option int)) "empty" None (Pct.quantile 0.5 [||]);
  Alcotest.check_raises "base latency refuses an unsupported p99"
    (Failure "999 served base-rate samples cannot support p99") (fun () ->
      ignore (W.base_latency_of (sample 999)))

(* The stall guard must end a world that stops answering within a fixed
   host budget, with every unserved request counted as a miss. *)
let stall_guard_budget = 60.0

let guarded_run ~dues ~issue =
  let eng = Engine.create () in
  let t0 = Unix.gettimeofday () in
  let out = Openloop.drive eng ~name:"q" ~dues ~issue:(issue eng) () in
  (out, Unix.gettimeofday () -. t0)

let check_counted ~what ~served (out : Openloop.outcome) host =
  Alcotest.(check int) (what ^ ": unserved requests counted")
    (Array.length out.reqs - served) (W.misses (W.tally out));
  Alcotest.(check bool)
    (Printf.sprintf "%s: host %.1f s within %.0f s" what host stall_guard_budget)
    true (host < stall_guard_budget)

let check_stopped ~what ~served (out : Openloop.outcome) host =
  Alcotest.(check bool) (what ^ ": stall guard fired") true out.stalled;
  Alcotest.(check bool) (what ^ ": stopped before the schedule ended") true
    (out.stop_at < out.reqs.(Array.length out.reqs - 1).due);
  check_counted ~what ~served out host

(* The first request is answered; from the second on, each request's
   fiber yields at its own instant forever, burning events without
   advancing virtual time: a livelock like the full-mode HTTP wedge. *)
let stall_guard_ends_livelock () =
  let dues = Array.init 50 (fun i -> Time.ms (100 * (i + 1))) in
  let out, host =
    guarded_run ~dues ~issue:(fun eng i ->
        if i = 0 then Some "ok"
        else
          let rec spin () = Engine.yield eng; spin () in
          spin ())
  in
  check_stopped ~what:"livelock" ~served:1 out host

(* Each request waits forever on a wake-up that never comes: no events,
   so only the virtual stall window can end the run. *)
let stall_guard_ends_silence () =
  let dues = Array.init 50 (fun i -> Time.ms (100 * (i + 1))) in
  let out, host =
    guarded_run ~dues ~issue:(fun eng i ->
        if i = 0 then Some "ok" else Engine.suspend eng (fun _ -> ()))
  in
  check_stopped ~what:"silence" ~served:1 out host;
  (* The guard is checked between slices. *)
  let window = dues.(1) + Openloop.stall_window in
  Alcotest.(check bool) "stopped in the slice that ends the stall window" true
    (out.stop_at >= window && out.stop_at < window + Openloop.slice)

(* Apache under full CRANE at 60 req/s, the rate the open-loop wedge
   hits: whether or not every request is served, the rate ends within the
   host budget with its unserved requests counted, instead of simulating
   a livelock for host-hours. *)
let http_top_rate_bounded () =
  W.drop_world ();
  let t0 = Unix.gettimeofday () in
  let r = W.http_rung ~seed:1 60. in
  let host = Unix.gettimeofday () -. t0 in
  check_counted ~what:"http-open at 60 req/s" ~served:(Array.length (W.latencies r.out))
    r.out host

(* The string literals of a JSON text, in order (escapes kept as is). *)
let json_strings text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else if text.[i] <> '"' then go (i + 1) acc
    else
      let rec close j =
        if text.[j] = '\\' then close (j + 2) else if text.[j] = '"' then j else close (j + 1)
      in
      let j = close (i + 1) in
      go (j + 1) (String.sub text (i + 1) (j - i - 1) :: acc)
  in
  go 0 []

(* The (name, unit) pairs of one metric list of BENCHMARK.json: the
   strings after [key] up to the next top-level key ([bound] is a key
   with a number value). *)
let declared text key =
  let rec from = function
    | k :: rest when k = key -> pairs rest
    | _ :: rest -> from rest
    | [] -> Alcotest.failf "%s missing from BENCHMARK.json" key
  and pairs = function
    | "name" :: name :: "unit" :: u :: rest -> (name, u) :: pairs rest
    | "better" :: _ :: rest | "bound" :: rest -> pairs rest
    | _ -> []
  in
  from (json_strings text)

let names_match_benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end_to_end" (declared text "end_to_end") Names.end_to_end;
  Alcotest.check pair "per_layer" (declared text "per_layer") Names.per_layer

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "same seed, byte-identical modelled results" `Quick
            same_seed_identical;
          Alcotest.test_case "different seed, different results" `Quick
            other_seed_differs;
          Alcotest.test_case "percentiles need 10 samples beyond" `Quick
            percentile_support;
          Alcotest.test_case "stall guard ends a livelock in budget" `Quick
            stall_guard_ends_livelock;
          Alcotest.test_case "stall guard ends a silent stall in budget" `Quick
            stall_guard_ends_silence;
          Alcotest.test_case "http top rate served or stopped in budget" `Quick
            http_top_rate_bounded;
          Alcotest.test_case "metric names and units match BENCHMARK.json" `Quick
            names_match_benchmark_json ] ) ]
