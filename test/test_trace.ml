(* The flight recorder: determinism of the exported trace, per-replica
   event accounting against ground truth, and the disabled-sink
   zero-event guarantee. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Paxos = Crane_paxos.Paxos
module Trace = Crane_trace.Trace
module Metrics = Crane_trace.Metrics

(* One traced run of the echo cluster: [n] clients, one request each,
   against replica1.  Returns the recorder and the cluster (for ground
   truth) after the simulation settles. *)
let traced_run ?(seed = 42) ?(n = 6) () =
  let tr = Trace.create () in
  let cluster =
    Cluster.create ~seed
      ~cfg:(Test_crane.test_cfg Instance.Full)
      ~trace:tr ~server:Test_crane.echo_server ()
  in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let answered = ref 0 in
  for i = 1 to n do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (10 * i));
        match
          Test_crane.one_request cluster ~from:(Printf.sprintf "c%d" i)
            ~node:"replica1"
            ~msg:(Printf.sprintf "hello%d" i)
        with
        | Some _ -> incr answered
        | None -> ())
  done;
  Cluster.run ~until:(Time.sec 3) cluster;
  Cluster.check_failures cluster;
  Alcotest.(check int) "all clients answered" n !answered;
  (tr, cluster)

(* Same seed, two separate simulations: the exported traces must match
   byte for byte (the determinism guarantee the whole layer rests on). *)
let test_deterministic_export () =
  let tr1, _ = traced_run () in
  let tr2, _ = traced_run () in
  Alcotest.(check bool) "trace is non-trivial" true (Trace.length tr1 > 100);
  Alcotest.(check int) "no events dropped" 0 (Trace.dropped tr1);
  Alcotest.(check string) "chrome JSON byte-identical" (Trace.to_chrome tr1)
    (Trace.to_chrome tr2);
  Alcotest.(check string) "JSONL byte-identical" (Trace.to_jsonl tr1)
    (Trace.to_jsonl tr2)

(* A different seed must still satisfy internal invariants but is free to
   differ; a cheap guard that the equality above is not vacuous. *)
let test_seed_sensitivity () =
  let tr1, _ = traced_run ~seed:42 () in
  let tr2, _ = traced_run ~seed:43 () in
  Alcotest.(check bool) "different seeds, different traces" true
    (Trace.to_chrome tr1 <> Trace.to_chrome tr2)

(* Per-replica commit accounting: every replica applies every decided
   entry, so each must log exactly [Paxos.decisions] "paxos.commit"
   instants, and the three replicas must agree. *)
let test_commit_counts () =
  let tr, cluster = traced_run () in
  let met = Metrics.of_trace ~per_node:true tr in
  let instances = Cluster.instances cluster in
  Alcotest.(check int) "three replicas" 3 (List.length instances);
  List.iter
    (fun (node, inst) ->
      let decided = (Paxos.stats inst.Instance.paxos).Paxos.decisions in
      Alcotest.(check bool) ("some decisions on " ^ node) true (decided > 0);
      Alcotest.(check int)
        ("commit events match decisions on " ^ node)
        decided
        (Metrics.counter_value met (node ^ "/paxos.commit")))
    instances;
  (* And proposals only happen on the primary. *)
  let proposes =
    List.filter
      (fun (node, _) -> Metrics.counter_value met (node ^ "/paxos.propose") > 0)
      instances
  in
  Alcotest.(check int) "exactly one proposing replica" 1 (List.length proposes)

(* Spans recorded during the run must aggregate into sane histograms:
   paired, positive, and attributed. *)
let test_span_metrics () =
  let tr, _ = traced_run () in
  let met = Metrics.of_trace tr in
  (match Metrics.summary met "paxos.decide" with
  | None -> Alcotest.fail "no paxos.decide spans recorded"
  | Some s ->
    Alcotest.(check bool) "decide spans positive" true (s.Metrics.p50 > 0);
    Alcotest.(check bool) "decide p99 >= p50" true (s.Metrics.p99 >= s.Metrics.p50));
  match Metrics.summary met "dmt.turn_wait" with
  | None -> Alcotest.fail "no dmt.turn_wait spans recorded"
  | Some s -> Alcotest.(check bool) "turn waits observed" true (s.Metrics.count > 0)

(* Without an attached recorder the engine uses Trace.null: permanently
   disabled, zero events, zero cost beyond one branch per site. *)
let test_disabled_sink_records_nothing () =
  let cluster =
    Cluster.create ~cfg:(Test_crane.test_cfg Instance.Full)
      ~server:Test_crane.echo_server ()
  in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  Engine.spawn eng ~name:"client" (fun () ->
      Engine.sleep eng (Time.ms 10);
      ignore (Test_crane.one_request cluster ~from:"c1" ~node:"replica1" ~msg:"hi"));
  Cluster.run ~until:(Time.sec 2) cluster;
  Cluster.check_failures cluster;
  let tr = Engine.trace eng in
  Alcotest.(check bool) "default sink is disabled" false (Trace.enabled tr);
  Alcotest.(check int) "no events recorded" 0 (Trace.length tr);
  (* The null sink cannot be switched on by accident. *)
  Trace.set_enabled Trace.null true;
  Alcotest.(check bool) "null stays disabled" false (Trace.enabled Trace.null)

(* An explicitly disabled recorder drops events at the emit sites too. *)
let test_toggling () =
  let tr = Trace.create () in
  Trace.instant tr ~ts:0 ~tid:1 ~cat:"x" ~name:"a" [];
  Trace.set_enabled tr false;
  (* Call sites guard on [enabled]; emitting while disabled is the bug
     this test would catch in instrumentation code. *)
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  Trace.set_enabled tr true;
  Trace.instant tr ~ts:5 ~tid:1 ~cat:"x" ~name:"a" [];
  Alcotest.(check int) "both enabled-time events kept" 2 (Trace.length tr)

(* Retention limit: overflow is counted, never raised, and the limit
   keeps memory bounded. *)
let test_limit_and_streaming () =
  let tr = Trace.create ~limit:10 () in
  let streamed = ref 0 in
  Trace.add_sink tr (fun _ -> incr streamed);
  for i = 1 to 25 do
    Trace.instant tr ~ts:i ~tid:0 ~cat:"c" ~name:"n" []
  done;
  Alcotest.(check int) "retained capped" 10 (Trace.length tr);
  Alcotest.(check int) "overflow counted" 15 (Trace.dropped tr);
  Alcotest.(check int) "sink saw everything" 25 !streamed;
  let tr2 = Trace.create ~retain:false () in
  let met = Metrics.create () in
  Metrics.attach met tr2;
  for i = 1 to 7 do
    Trace.instant tr2 ~ts:i ~tid:0 ~cat:"c" ~name:"n" []
  done;
  Alcotest.(check int) "non-retaining keeps nothing" 0 (Trace.length tr2);
  Alcotest.(check int) "metrics counted via sink" 7 (Metrics.counter_value met "c.n")

(* [null] is the recorder every untraced engine shares: a sink on it
   would leak across worlds, so attaching one is refused. *)
let test_null_refuses_sinks () =
  Alcotest.check_raises "add_sink on null"
    (Invalid_argument "Trace.add_sink: the shared null recorder") (fun () ->
      Trace.add_sink Trace.null (fun _ -> ()));
  Alcotest.check_raises "Metrics.attach on an untraced engine's recorder"
    (Invalid_argument "Trace.add_sink: the shared null recorder") (fun () ->
      Metrics.attach (Metrics.create ()) (Engine.trace (Engine.create ())))

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "deterministic export" `Quick test_deterministic_export;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "commit counts per replica" `Quick test_commit_counts;
        Alcotest.test_case "span metrics" `Quick test_span_metrics;
        Alcotest.test_case "disabled sink records nothing" `Quick
          test_disabled_sink_records_nothing;
        Alcotest.test_case "toggling" `Quick test_toggling;
        Alcotest.test_case "limit and streaming" `Quick test_limit_and_streaming;
        Alcotest.test_case "null refuses sinks" `Quick test_null_refuses_sinks;
      ] );
  ]
