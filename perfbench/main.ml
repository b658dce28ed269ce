(* The benchmark command: one workload, one seed, one measuring mode.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 repeats the workload's full pass (every ladder rate plus the
   native baseline) until S host seconds have elapsed and reports the
   end-to-end metrics: modelled ones from the first pass (every later
   pass must reproduce them exactly), host ones as medians over passes.
   --trace 1 runs the base-rate world twice, untraced then traced, and
   reports the per-layer metrics.  The last line of stdout is the JSON
   result; failed checks are listed on stderr. *)

module W = Crane_perfbench.Workloads
module Pct = Crane_perfbench.Pct
module Layers = Crane_perfbench.Layers
module Names = Crane_perfbench.Names
module Trace = Crane_trace.Trace

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: sysbench-open ledger-readmix-failover http-open";
  exit 2

let parse_args () =
  let get = Hashtbl.create 4 in
  let rec go = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace get (String.sub key 2 (String.length key - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let arg k = match Hashtbl.find_opt get k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (arg k) with Some n -> n | None -> usage () in
  let name = arg "workload" in
  let wl = match List.assoc_opt name W.workloads with Some w -> w | None -> usage () in
  let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
  (name, wl, int "seed", max 1 (int "seconds"), trace)

let json_result ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "non-finite metric value"
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (k, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) u)
          metrics))

let with_units units values =
  List.map
    (fun (k, u) ->
      match List.assoc_opt k values with
      | Some v -> (k, u, v)
      | None -> failwith ("metric not measured: " ^ k))
    units

let report_checks checks =
  List.iter
    (fun (c : W.check) ->
      if not c.ok then Printf.eprintf "CHECK FAILED %s: %s\n%!" c.cname c.detail)
    checks;
  List.for_all (fun (c : W.check) -> c.ok) checks

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Everything a replay must reproduce bit for bit. *)
let digest (p : W.pass) =
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) p.modelled
    @ [ string_of_int p.attempted; string_of_int p.failed; string_of_int p.samples ]
    @ List.map (fun (c : W.check) -> Printf.sprintf "%s=%b" c.cname c.ok) p.checks)

let untraced wl ~seed ~seconds =
  let t0 = Unix.gettimeofday () in
  let rec go acc =
    let p = wl.W.pass ~seed in
    Printf.eprintf "pass %d: host %.3f s\n%!" (List.length acc + 1) (W.host_s p);
    let acc = p :: acc in
    if Unix.gettimeofday () -. t0 < float_of_int seconds then go acc else List.rev acc
  in
  let passes = go [] in
  let first = List.hd passes in
  let replay_ok = List.for_all (fun p -> digest p = digest first) passes in
  let correct =
    report_checks
      (first.checks
      @ [ W.check "same-seed-passes-identical" replay_ok
            (Printf.sprintf "%d passes disagree" (List.length passes)) ])
  in
  Printf.printf "%d passes; base-rate samples %d; attempted %d; failed %d\n"
    (List.length passes) first.samples first.attempted first.failed;
  let host = Pct.median_f (List.map W.host_s passes) in
  (* Every CRANE world of every pass is one set-up sample. *)
  let setup = Pct.median_f (List.concat_map W.setups passes) in
  let metrics =
    with_units Names.end_to_end
      (first.modelled
      @ [ ("host_s", host); ("setup_s", setup); ("peak_heap_mb", peak_heap_mb ()) ])
  in
  (correct, first.attempted, first.failed, metrics)

(* One untraced pass (the host baseline and the ladder's failure count),
   then the base-rate world again under the flight recorder. *)
let traced wl ~seed =
  let p = wl.W.pass ~seed in
  let base = List.hd p.summaries in
  let tr = Trace.create () in
  let r1, layers, checks1 = wl.W.base ~trace:tr ~seed () in
  let stages, (cp : Crane_trace.Critical_path.report) = Layers.of_trace tr in
  let correct =
    report_checks
      (p.checks @ checks1
      @ [ W.check "trace-does-not-perturb" (p.base_lat = W.latencies r1.out)
            "the traced world's base-rate latencies differ from the untraced pass";
          W.check "span-dags-well-formed" (cp.errors = [])
            (String.concat "; " (List.filteri (fun i _ -> i < 3) cp.errors));
          (* Below 0.99 the stage numbers do not account for the requests. *)
          W.check "trace-coverage" (cp.coverage >= 0.99)
            (Printf.sprintf "coverage %.4f" cp.coverage) ])
  in
  let late =
    Array.fold_left (fun a (q : Crane_perfbench.Openloop.req) -> max a q.lateness) 0 r1.out.reqs
  in
  let per_req = float_of_int base.s_attempted in
  let host =
    [ ("sim.host_s", base.s_sim_host); ("sim.words_per_req", base.s_words /. per_req);
      ("setup.host_s", base.s_setup);
      ("trace.overhead_x", r1.run_host /. base.s_host);
      ("fail_frac", float_of_int p.failed /. float_of_int p.attempted);
      ("gen.lateness_max_ns", float_of_int late) ]
  in
  (* Layers a workload bypasses have no stats entry: they read 0. *)
  let values = stages @ layers @ host in
  let metrics =
    with_units Names.per_layer
      (List.map
         (fun (k, _) -> (k, Option.value (List.assoc_opt k values) ~default:0.0))
         Names.per_layer)
  in
  (correct, p.attempted, p.failed, metrics)

let () =
  let name, wl, seed, seconds, trace = parse_args () in
  match if trace then traced wl ~seed else untraced wl ~seed ~seconds with
  | correct, attempted, failed, metrics ->
    List.iter (fun (k, u, v) -> Printf.printf "  %-28s %14.4f %s\n" k v u) metrics;
    print_endline (json_result ~correct ~attempted ~failed metrics)
  | exception e ->
    Printf.eprintf "%s: benchmark error: %s\n" name (Printexc.to_string e);
    exit 1
