(* Command-line front end: run any server under any deployment and
   report latency statistics, or exercise the failure scenarios.

     dune exec bin/crane_cli.exe -- run --server apache --mode crane
     dune exec bin/crane_cli.exe -- run --server mysql --mode native -n 200
     dune exec bin/crane_cli.exe -- failover --server mongoose
     dune exec bin/crane_cli.exe -- servers *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Standalone = Crane_core.Standalone
module Output_log = Crane_core.Output_log
module Paxos = Crane_paxos.Paxos
module Sock = Crane_socket.Sock
module Target = Crane_workload.Target
module Clients = Crane_workload.Clients
module Loadgen = Crane_workload.Loadgen
module Stats = Crane_report.Stats
module Table = Crane_report.Table
module Trace = Crane_trace.Trace
module Metrics = Crane_trace.Metrics
module Bench_result = Crane_report.Bench_result
open Cmdliner

type server_choice = Apache | Mongoose | Clamav | Mediatomb | Mysql

let all_servers =
  [ ("apache", Apache); ("mongoose", Mongoose); ("clamav", Clamav);
    ("mediatomb", Mediatomb); ("mysql", Mysql) ]

let server_of = function
  | Apache -> (Crane_apps.Apache.server ~cfg:{ Crane_apps.Apache.default_config with hints = true } (), 80)
  | Mongoose -> (Crane_apps.Mongoose.server ~cfg:{ Crane_apps.Mongoose.default_config with hints = true } (), 80)
  | Clamav -> (Crane_apps.Clamav.server (), 3310)
  | Mediatomb -> (Crane_apps.Mediatomb.server (), 49152)
  | Mysql -> (Crane_apps.Mysql.server (), 3306)

let request_of choice rng =
  match choice with
  | Apache | Mongoose -> fun t ~from -> Clients.apachebench t ~from
  | Clamav -> fun t ~from -> Clients.clamdscan ~dirs:8 t ~from
  | Mediatomb -> fun t ~from -> Clients.mediabench t ~from
  | Mysql -> fun t ~from -> Clients.sysbench ~rng ~ntables:16 ~rows:2000 t ~from

type mode_choice = Native | Parrot | PaxosOnly | Crane | PlanII

let all_modes =
  [ ("native", Native); ("parrot", Parrot); ("paxos-only", PaxosOnly);
    ("crane", Crane); ("plan2", PlanII) ]

let fast_paxos =
  { Paxos.default_config with
    Paxos.heartbeat_period = Time.ms 200; election_timeout = Time.ms 600;
    election_jitter = Time.ms 100; round_retry = Time.ms 200 }

let imode_of = function
  | PaxosOnly -> Instance.Paxos_only
  | PlanII -> Instance.No_bubbling
  | Native | Parrot | Crane -> Instance.Full

let report name (r : Loadgen.result) =
  Printf.printf "%s: %d ok, %d errors\n" name (List.length r.Loadgen.latencies)
    r.Loadgen.errors;
  if r.Loadgen.latencies <> [] then
    Printf.printf
      "  latency: median %s  mean %.2fms  p90 %s  p99 %s  (virtual wall %s)\n"
      (Time.to_string (Stats.median r.Loadgen.latencies))
      (Stats.mean r.Loadgen.latencies /. 1e6)
      (Time.to_string (Stats.percentile 0.9 r.Loadgen.latencies))
      (Time.to_string (Stats.percentile 0.99 r.Loadgen.latencies))
      (Time.to_string r.Loadgen.wall)

let run_cmd choice mode clients requests seed =
  let server, port = server_of choice in
  let rng = Rng.create (seed + 1) in
  let request = request_of choice rng in
  (match mode with
  | Native | Parrot ->
    let m = if mode = Native then Standalone.Native else Standalone.Parrot in
    let sa = Standalone.boot ~seed ~mode:m ~server () in
    let target = Target.standalone sa ~port in
    let handle = Loadgen.run ~clients ~requests ~request target in
    Loadgen.drive ~timeout:(Time.sec 3600) target handle;
    Standalone.check_failures sa;
    report "un-replicated" (handle.Loadgen.collect ())
  | PaxosOnly | Crane | PlanII ->
    let imode = imode_of mode in
    let cfg =
      { Instance.default_config with mode = imode; service_port = port; paxos = fast_paxos }
    in
    let cluster = Cluster.create ~seed ~cfg ~server () in
    Cluster.start cluster;
    let target = Target.cluster cluster ~port in
    let handle = Loadgen.run ~clients ~requests ~request target in
    Loadgen.drive ~timeout:(Time.sec 3600) target handle;
    Cluster.check_failures cluster;
    report "3-replica cluster" (handle.Loadgen.collect ());
    match Cluster.outputs cluster with
    | (_, o1) :: rest ->
      let same = List.for_all (fun (_, o) -> Output_log.equal o1 o) rest in
      Printf.printf "  replica outputs identical: %b\n" same
    | [] -> ());
  0

let failover_cmd choice seed =
  let server, port = server_of choice in
  let rng = Rng.create (seed + 1) in
  let request = request_of choice rng in
  let cfg =
    { Instance.default_config with service_port = port; checkpoint_period = Time.sec 2 }
  in
  let cluster = Cluster.create ~seed ~cfg ~server () in
  Cluster.start ~checkpoints:true cluster;
  let eng = Cluster.engine cluster in
  let target = Target.cluster cluster ~port in
  let handle = Loadgen.run ~think:(Time.ms 50) ~clients:4 ~requests:400 ~request target in
  Engine.at eng (Time.sec 5) (fun () ->
      Printf.printf "[5s] killing primary\n";
      Cluster.kill cluster "replica1");
  Engine.at eng (Time.sec 12) (fun () ->
      Printf.printf "[12s] restarting replica1 from checkpoint\n";
      ignore (Cluster.restart cluster "replica1"));
  Loadgen.drive ~timeout:(Time.sec 600) target handle;
  Cluster.run ~until:(Engine.now eng + Time.sec 10) cluster;
  Cluster.check_failures cluster;
  report "failover run" (handle.Loadgen.collect ());
  (match Cluster.primary cluster with
  | Some (n, p) ->
    Printf.printf "primary now: %s (view %d)%s\n" n (Paxos.view p.Instance.paxos)
      (match (Paxos.stats p.Instance.paxos).Paxos.last_election_duration with
      | Some d -> Printf.sprintf ", election took %s" (Time.to_string d)
      | None -> "")
  | None -> print_endline "no primary!");
  0

(* Run a workload with the flight recorder attached, export the trace
   (chrome://tracing JSON or JSONL) and print the aggregated metrics.
   Deterministic: the same seed yields a byte-identical trace file. *)
let trace_cmd choice mode clients requests seed format out =
  let server, port = server_of choice in
  let rng = Rng.create (seed + 1) in
  let request = request_of choice rng in
  let tr = Trace.create () in
  let run_workload target =
    let handle = Loadgen.run ~clients ~requests ~request target in
    Loadgen.drive ~timeout:(Time.sec 3600) target handle;
    handle.Loadgen.collect ()
  in
  let result =
    match mode with
    | Native | Parrot ->
      let m = if mode = Native then Standalone.Native else Standalone.Parrot in
      let sa = Standalone.boot ~seed ~mode:m ~trace:tr ~server () in
      let r = run_workload (Target.standalone sa ~port) in
      Standalone.check_failures sa;
      r
    | PaxosOnly | Crane | PlanII ->
      let cfg =
        { Instance.default_config with mode = imode_of mode; service_port = port;
          paxos = fast_paxos }
      in
      let cluster = Cluster.create ~seed ~cfg ~trace:tr ~server () in
      Cluster.start cluster;
      let r = run_workload (Target.cluster cluster ~port) in
      Cluster.check_failures cluster;
      r
  in
  report "traced run" result;
  let payload =
    match format with
    | `Chrome -> Trace.to_chrome tr
    | `Jsonl -> Trace.to_jsonl tr
  in
  (match open_out out with
  | oc ->
    output_string oc payload;
    close_out oc
  | exception Sys_error msg ->
    Printf.eprintf "crane: cannot write trace: %s\n" msg;
    exit 1);
  Printf.printf "trace: %d events (%d dropped beyond limit) -> %s\n"
    (Trace.length tr) (Trace.dropped tr) out;
  let met = Metrics.of_trace tr in
  Table.print ~title:"event counts" ~header:[ "event"; "count" ]
    (List.map (fun (n, v) -> [ n; string_of_int v ]) (Metrics.counters met));
  Table.print ~title:"virtual-time spans"
    ~header:[ "span"; "count"; "total"; "p50"; "p90"; "p99" ]
    (List.map
       (fun (n, s) ->
         [ n; string_of_int s.Metrics.count; Time.to_string s.Metrics.total;
           Time.to_string s.Metrics.p50; Time.to_string s.Metrics.p90;
           Time.to_string s.Metrics.p99 ])
       (Metrics.summaries met));
  0

(* Run the deterministic chaos suite (or one scenario): inject faults
   under load, check SMR invariants, print one report per scenario.
   Exits nonzero on any invariant violation.  The same seed + scenario
   always prints a byte-identical report. *)
let chaos_cmd scenario seed list =
  let module Chaos = Crane_chaos.Chaos in
  if list then begin
    print_endline "built-in chaos scenarios:";
    List.iter
      (fun s -> Printf.printf "  %-18s %s\n" s.Chaos.name s.Chaos.about)
      Chaos.scenarios;
    0
  end
  else
    let to_run =
      match scenario with
      | None -> Chaos.scenarios
      | Some name -> (
        match Chaos.find_scenario name with
        | Some s -> [ s ]
        | None ->
          Printf.eprintf "crane: unknown scenario %s\nvalid scenarios: %s\n" name
            (String.concat ", "
               (List.map (fun s -> s.Chaos.name) Chaos.scenarios));
          exit 2)
    in
    let reports =
      List.map
        (fun s ->
          let r = Chaos.run ~seed s in
          print_string (Chaos.render_report r);
          print_newline ();
          r)
        to_run
    in
    let failed = List.filter (fun r -> not (Chaos.passed r)) reports in
    Table.print ~title:"chaos suite summary" ~header:[ "scenario"; "verdict" ]
      (List.map
         (fun r ->
           [ r.Chaos.r_scenario; (if Chaos.passed r then "PASS" else "FAIL") ])
         reports);
    if failed = [] then begin
      Printf.printf "\nall %d scenarios passed (seed %d)\n" (List.length reports) seed;
      0
    end
    else begin
      Printf.printf "\n%d of %d scenarios FAILED (seed %d)\n" (List.length failed)
        (List.length reports) seed;
      1
    end

(* ---- bench: batched vs. unbatched commit throughput ---- *)

module Wal = Crane_storage.Wal

type bench_run = {
  b_commits : int;  (** consensus decisions on the primary *)
  b_wall : Time.t;
  b_sent : int;  (** socket-call events the clients injected *)
  b_wal_writes : int;  (** durable writes on the primary's WAL *)
  b_batches : int;
  b_mean_batch : float;
  b_hist : (int * int) list;  (** committed batch-size histogram (capped) *)
  b_max_batch : int;  (** true observed max, unclamped *)
}

let commits_per_sec r =
  if r.b_wall <= 0 then 0.0
  else float_of_int r.b_commits /. (Time.to_float_ms r.b_wall /. 1000.)

(* One measured configuration: a 3-replica Paxos_only cluster (the
   consensus pipeline without DMT overhead) under an open-loop streaming
   workload — [clients] connections each inject a small request event
   every 100 us for [duration], without waiting for responses.  That
   arrival rate (16 clients -> ~160k events/s) saturates the unbatched
   commit path, whose ceiling is one 15 us WAL fsync per event (~66k/s);
   commit throughput is the primary's decided index at the cutoff
   instant over the streaming window.  The streams never reach the
   application, so the numbers do not depend on the server: apache
   stands in for all five. *)
let bench_run ~batch_max ~clients ~duration ~seed =
  let server, port = server_of Apache in
  let cfg =
    { Instance.default_config with mode = Instance.Paxos_only;
      service_port = port; paxos = fast_paxos; batch_max }
  in
  let cluster = Cluster.create ~seed ~cfg ~server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let world = Cluster.world cluster in
  let start = Time.ms 10 in
  let spacing = Time.us 100 in
  let sent = ref 0 in
  for i = 1 to clients do
    Engine.spawn eng ~name:(Printf.sprintf "stream%d" i) (fun () ->
        (* Staggered starts de-synchronize the streams. *)
        Engine.sleep eng (start + Time.us (7 * i));
        match Sock.connect world ~from:(Printf.sprintf "c%d" i) ~node:"replica1" ~port with
        | exception _ -> ()
        | conn ->
          incr sent;
          (try
             while Engine.now eng < start + duration do
               Sock.send conn (Printf.sprintf "req-%d" i);
               incr sent;
               Engine.sleep eng spacing
             done
           with _ -> ()))
  done;
  Cluster.run ~until:(start + duration) cluster;
  Cluster.check_failures cluster;
  let commits, batches, mean_batch, hist, max_batch =
    match Cluster.primary cluster with
    | Some (_, inst) ->
      let s = Paxos.stats inst.Instance.paxos in
      let events, n =
        List.fold_left
          (fun (ev, n) (size, count) -> (ev + (size * count), n + count))
          (0, 0) s.Paxos.events_per_batch
      in
      ( Paxos.committed inst.Instance.paxos, s.Paxos.batches_committed,
        (if n = 0 then 0.0 else float_of_int events /. float_of_int n),
        s.Paxos.events_per_batch, s.Paxos.max_batch )
    | None -> (0, 0, 0.0, [], 0)
  in
  {
    b_commits = commits;
    b_wall = duration;
    b_sent = !sent;
    b_wal_writes = Wal.writes (Hashtbl.find cluster.Cluster.wals "replica1");
    b_batches = batches;
    b_mean_batch = mean_batch;
    b_hist = hist;
    b_max_batch = max_batch;
  }

(* Fixed-seed equivalence probe: a sequential client (no response-latency
   races, so event arrival order cannot depend on commit timing) against
   the same seed, batched and unbatched — the replica output logs must
   render byte-identically. *)
let bench_equivalence choice ~seed ~requests =
  let render batch_max =
    let server, port = server_of choice in
    let rng = Rng.create (seed + 1) in
    let request = request_of choice rng in
    let cfg =
      { Instance.default_config with mode = Instance.Paxos_only;
        service_port = port; paxos = fast_paxos; batch_max }
    in
    let cluster = Cluster.create ~seed ~cfg ~server () in
    Cluster.start ~checkpoints:false cluster;
    let target = Target.cluster cluster ~port in
    let handle = Loadgen.run ~clients:1 ~requests ~request target in
    Loadgen.drive ~timeout:(Time.sec 3600) target handle;
    Cluster.check_failures cluster;
    match Cluster.outputs cluster with
    | (_, o) :: _ -> Output_log.render o
    | [] -> ""
  in
  let a = render 1 and b = render 64 in
  a <> "" && String.equal a b

let batching_bench ~quick ~seed =
  let clients = 16 in
  let duration = if quick then Time.ms 200 else Time.sec 1 in
  let eq_requests = if quick then 12 else 32 in
  Printf.printf "bench batching: unbatched...%!";
  let u = bench_run ~batch_max:1 ~clients ~duration ~seed in
  Printf.printf " batched...%!";
  let b = bench_run ~batch_max:64 ~clients ~duration ~seed in
  let identical =
    List.map
      (fun (name, choice) ->
        Printf.printf " %s...%!" name;
        (name, bench_equivalence choice ~seed ~requests:eq_requests))
      all_servers
  in
  print_newline ();
  (* The histogram clamps at the cap, so its top bucket is a fold over
     every larger size — label it "<cap>+" and report the true max. *)
  if b.b_hist <> [] then
    Table.print
      ~title:(Printf.sprintf "committed batch sizes (batched run; max observed %d)" b.b_max_batch)
      ~header:[ "events/batch"; "batches" ]
      (Table.histogram_rows ~cap:Paxos.histogram_cap b.b_hist);
  let side name r =
    let open Bench_result in
    let key k = name ^ "." ^ k in
    [ info (key "commits") ~unit:"commits" (float r.b_commits);
      info (key "wall_ms") ~digits:3 ~unit:"ms" (Time.to_float_ms r.b_wall);
      higher (key "commits_per_sec") ~digits:0 ~unit:"commits/s" (commits_per_sec r);
      info (key "events_sent") ~unit:"events" (float r.b_sent);
      info (key "wal_writes") ~unit:"writes" (float r.b_wal_writes);
      info (key "batches_committed") ~unit:"batches" (float r.b_batches);
      info (key "mean_events_per_batch") ~digits:2 ~unit:"events" r.b_mean_batch ]
  in
  let speedup =
    if commits_per_sec u > 0.0 then commits_per_sec b /. commits_per_sec u else 0.0
  in
  ( [ ("clients", clients); ("stream_ms", duration / Time.ms 1); ("equivalence_requests", eq_requests) ],
    side "unbatched" u @ side "batched" b
    @ Bench_result.higher "speedup" ~digits:2 ~unit:"x" ~bound:2.0 speedup
      :: List.map (fun (name, ok) -> Bench_result.flag ("identical." ^ name) ok) identical )

(* ---- bench recovery: bounded logs and two-tier catch-up ---- *)

(* Measures what log compaction buys: a 3-node consensus group streams
   [history] decisions while one backup is down, then restarts it and
   times how long the straggler takes to re-join.  With compaction on,
   the group's resident log stays bounded (entries below the watermark
   are freed once a snapshot covers them) and the straggler recovers via
   snapshot transfer plus a short log suffix; with compaction off, the
   log grows with history and recovery replays everything.  The paxos
   layer is benched directly (no DMT) so the numbers isolate the
   consensus/storage path the fix targets. *)

module Fabric = Crane_net.Fabric

type recovery_run = {
  rr_history : int;
  rr_recovery : Time.t;  (** virtual time for the restarted replica to re-join *)
  rr_peak_log : int;  (** peak resident log entries across replicas *)
  rr_final_log : int;  (** resident log entries on the primary afterwards *)
  rr_wal_records : int;  (** resident WAL records on the primary *)
  rr_wal_dropped : int;  (** WAL records freed by truncation on the primary *)
  rr_compactions : int;
  rr_snapshots : int;  (** snapshot installs on the restarted replica *)
  rr_converged : bool;
}

type rnode = { rn_paxos : Paxos.t; rn_group : Engine.group; rn_state : string ref }

let recovery_members = [ "n1"; "n2"; "n3" ]

(* Applied decisions between two snapshots of the checkpoint backup. *)
let recovery_snapshot_every = 256

let recovery_run ~threshold ~history ~seed =
  let eng = Engine.create () in
  let fabric = Fabric.create eng (Rng.create seed) in
  let wals = Hashtbl.create 4 in
  let config =
    { Paxos.heartbeat_period = Time.ms 50; election_timeout = Time.ms 200;
      election_jitter = Time.ms 30; round_retry = Time.ms 50;
      compaction_threshold = threshold; catchup_chunk = 256 ;
    suspect_timeout = Paxos.default_config.suspect_timeout;
      lease_duration = Time.ms 100 }
  in
  let boot name =
    let wal =
      match Hashtbl.find_opt wals name with
      | Some w -> w
      | None ->
        let w = Wal.create eng ~name in
        Hashtbl.add wals name w;
        w
    in
    let group = Engine.new_group eng in
    let p =
      Paxos.create ~config ~fabric ~rng:(Rng.create (seed + Hashtbl.hash name)) ~wal
        ~members:recovery_members ~node:name ~group ()
    in
    (* The replicated state is a chain digest of the decision stream: tiny,
       but it distinguishes any two histories, so convergence checks are
       as strict as with a real server. *)
    let state = ref "" in
    Paxos.set_handlers p
      { Paxos.on_commit =
          (fun ~index:_ v -> state := Digest.to_hex (Digest.string (!state ^ v)));
        on_demote = (fun () -> ());
      on_config = (fun ~epoch:_ _ -> ());
      on_fence = (fun ~epoch:_ -> ()) };
    Paxos.set_compaction_hooks p
      { Paxos.install_snapshot =
          (fun ~index:_ blob -> state := (Marshal.from_string blob 0 : string));
        on_compact = (fun ~watermark:_ -> ()) };
    Paxos.start p ~as_primary:(name = "n1") ();
    Fabric.node_up fabric name;
    (* WAL recovery does not re-fire on_commit (a real instance replays
       decided calls itself, from its restored checkpoint); do the same
       here — restore the recovered snapshot, then fold the resident
       committed suffix into the state. *)
    let from =
      match Paxos.snapshot p with
      | Some (s_index, blob) when s_index <= Paxos.applied p ->
        state := (Marshal.from_string blob 0 : string);
        s_index + 1
      | _ -> Paxos.base p + 1
    in
    List.iter
      (fun v -> state := Digest.to_hex (Digest.string (!state ^ v)))
      (Paxos.get_committed_range p ~lo:from ~hi:(Paxos.applied p));
    { rn_paxos = p; rn_group = group; rn_state = state }
  in
  let n1 = boot "n1" in
  let n2 = boot "n2" in
  let n3 = boot "n3" in
  (* n2 plays the checkpoint backup: every [recovery_snapshot_every]
     applied decisions it hands its state to consensus as a snapshot (what
     Instance does after each real checkpoint), which is what licenses
     compaction. *)
  let last_offered = ref 0 in
  let rec snap_loop () =
    Engine.after eng (Time.ms 20) (fun () ->
        let a = Paxos.applied n2.rn_paxos in
        if a - !last_offered >= recovery_snapshot_every then begin
          last_offered := a;
          Paxos.offer_snapshot n2.rn_paxos ~index:a
            ~blob:(Marshal.to_string !(n2.rn_state) [])
        end;
        snap_loop ())
  in
  snap_loop ();
  Engine.spawn eng ~name:"stream" (fun () ->
      Engine.sleep eng (Time.ms 10);
      for i = 1 to history do
        ignore (Paxos.submit n1.rn_paxos (Printf.sprintf "r%07d" i));
        Engine.sleep eng (Time.us 100)
      done);
  (* Kill n3 early: everything decided after this point is history it must
     recover on restart. *)
  Engine.run ~until:(Time.ms 50) eng;
  Engine.kill_group eng n3.rn_group;
  Fabric.node_down fabric "n3";
  let stream_end = Time.ms 10 + (history * Time.us 100) in
  Engine.run ~until:(stream_end + Time.ms 300) eng;
  let n3' = boot "n3" in
  let t0 = Engine.now eng in
  let deadline = t0 + Time.sec 60 in
  while
    Paxos.applied n3'.rn_paxos < Paxos.committed n1.rn_paxos
    && Engine.now eng < deadline
  do
    Engine.run ~until:(Engine.now eng + Time.ms 5) eng
  done;
  let recovery = Engine.now eng - t0 in
  let converged =
    Paxos.applied n3'.rn_paxos >= Paxos.committed n1.rn_paxos
    && String.equal !(n3'.rn_state) !(n1.rn_state)
  in
  (match Engine.failures eng with
  | [] -> ()
  | (name, e) :: _ ->
    failwith (Printf.sprintf "bench thread %s died: %s" name (Printexc.to_string e)));
  let live = [ n1; n2; n3' ] in
  let peak =
    List.fold_left
      (fun acc n -> max acc (Paxos.stats n.rn_paxos).Paxos.peak_log_resident)
      0 live
  in
  let wal1 = Hashtbl.find wals "n1" in
  {
    rr_history = history;
    rr_recovery = recovery;
    rr_peak_log = peak;
    rr_final_log = (Paxos.stats n1.rn_paxos).Paxos.log_resident;
    rr_wal_records = Wal.length wal1;
    rr_wal_dropped = Wal.dropped wal1;
    rr_compactions =
      List.fold_left
        (fun acc n -> acc + (Paxos.stats n.rn_paxos).Paxos.compactions)
        0 live;
    rr_snapshots = (Paxos.stats n3'.rn_paxos).Paxos.snapshots_installed;
    rr_converged = converged;
  }

let recovery_bench ~quick ~seed =
  let histories = if quick then [ 500; 1000; 2000 ] else [ 1000; 2000; 4000; 8000 ] in
  let threshold = 128 in
  let measure th = List.map (fun history -> recovery_run ~threshold:th ~history ~seed) histories in
  Printf.printf "bench recovery: compaction on (threshold %d)...%!" threshold;
  let on = measure threshold in
  Printf.printf " off...%!";
  let off = measure 0 in
  print_endline " done";
  let run side r =
    let open Bench_result in
    let key k = Printf.sprintf "%s.h%d.%s" side r.rr_history k in
    [ lower (key "recovery_ms") ~digits:3 ~unit:"ms" (Time.to_float_ms r.rr_recovery);
      lower (key "peak_log_resident") ~unit:"entries" (float r.rr_peak_log);
      info (key "final_log_resident") ~unit:"entries" (float r.rr_final_log);
      info (key "wal_records") ~unit:"records" (float r.rr_wal_records);
      info (key "wal_dropped") ~unit:"records" (float r.rr_wal_dropped);
      info (key "compactions") (float r.rr_compactions);
      info (key "snapshots_installed") (float r.rr_snapshots);
      flag (key "converged") r.rr_converged ]
  in
  let last l = List.nth l (List.length l - 1) in
  let smallest = List.hd on and largest = last on and off_largest = last off in
  (* "bounded" means the peak stops tracking history length: the largest
     run's peak must stay within a constant band of the smallest run's,
     and clearly below the uncompacted peak. *)
  ( [ ("threshold", threshold); ("snapshot_every", recovery_snapshot_every);
      ("max_history", largest.rr_history) ],
    List.concat_map (run "on") on @ List.concat_map (run "off") off
    @ Bench_result.
        [ flag "peak_flat" (largest.rr_peak_log <= (2 * smallest.rr_peak_log) + 256);
          flag "peak_below_uncompacted" (largest.rr_peak_log < off_largest.rr_peak_log);
          flag "snapshot_path_used" (largest.rr_snapshots >= 1) ] )

(* ---- bench: client-visible unavailability during a live replica
   replacement ---- *)

module Ledger = Crane_chaos.Ledger

let max_gap instants =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (max acc (b - a)) rest
    | _ -> acc
  in
  go Time.zero instants

(* Kill the primary under load, then commit a membership change swapping
   the dead replica for a fresh one.  The workload never stops: the gap
   analysis over its completion instants is the availability measurement
   (the paper's criterion: failures must be masked from clients). *)
let reconfig_bench_run ~seed ~requests =
  let cfg =
    { Instance.default_config with
      paxos =
        { Paxos.default_config with
          Paxos.heartbeat_period = Time.ms 100; election_timeout = Time.ms 300;
          election_jitter = Time.ms 50; round_retry = Time.ms 100 };
      checkpoint_period = Time.sec 2 }
  in
  let cluster = Cluster.create ~seed ~cfg ~server:Ledger.server () in
  let eng = Cluster.engine cluster in
  Cluster.start cluster;
  Cluster.run ~until:(Time.ms 200) cluster;
  let kill_at = Time.ms 1200 in
  let dead = ref "" in
  Engine.at eng kill_at (fun () ->
      match Cluster.primary_node cluster with
      | Some p ->
        dead := p;
        Cluster.kill cluster p;
        Engine.after eng (Time.ms 200) (fun () ->
            Cluster.replace_replica cluster ~dead:p ~fresh:"replica4")
      | None -> ());
  let target = Target.cluster cluster ~port:80 in
  let ledger = Ledger.client () in
  let handle =
    Loadgen.run ~name:"reconfig" ~seed ~think:(Time.ms 2) ~retries:8
      ~retry_backoff:(Time.ms 50) ~clients:6 ~requests
      ~request:(Ledger.request ledger) target
  in
  Loadgen.drive ~timeout:(Time.sec 120) target handle;
  let load = handle.Loadgen.collect () in
  (* let the replacement finish joining and catching up *)
  Cluster.run ~until:(Engine.now eng + Time.sec 3) cluster;
  Cluster.check_failures cluster;
  let before = List.filter (fun t -> t < kill_at) load.Loadgen.completions in
  let last = List.fold_left max Time.zero load.Loadgen.completions in
  let open Bench_result in
  [ info "ok" ~unit:"requests" (float (List.length load.Loadgen.latencies));
    lower "errors" ~bound:0.0 ~unit:"requests" (float load.Loadgen.errors);
    info "retries" ~unit:"requests" (float load.Loadgen.retries);
    higher "epoch" ~bound:1.0 ~unit:"epoch" (float (Cluster.current_epoch cluster));
    (* widest gap between consecutive successful completions before the
       primary dies: the no-fault baseline *)
    lower "steady_gap_ns" ~unit:"ns" (float (max_gap before));
    (* widest gap across the whole run: the client-visible outage spanning
       the crash, the election and the membership change *)
    lower "unavail_ns" ~bound:(float (Time.ms 1500)) ~unit:"ns"
      (float (max_gap load.Loadgen.completions));
    info "wall_ns" ~unit:"ns" (float load.Loadgen.wall);
    (* the replacement is live and a member, the dead node fenced out *)
    flag "healed"
      (Cluster.instance cluster "replica4" <> None
      && List.mem "replica4" (Cluster.members cluster)
      && (not (List.mem !dead (Cluster.members cluster)))
      && Cluster.primary_node cluster <> None);
    (* the workload was still running when the primary died: without
       this the gap analysis would measure nothing *)
    flag "spans_fault" (last > kill_at) ]

let reconfig_bench ~quick ~seed =
  let requests = if quick then 4000 else 8000 in
  Printf.printf "bench reconfig: replace the killed primary under load...%!";
  let run () = reconfig_bench_run ~seed ~requests in
  let first = run () in
  (* Same seed, fresh cluster: the availability measurement must be a pure
     function of the seed for the gate (and the drift check) to mean
     anything. *)
  let second = run () in
  print_endline " done";
  ([ ("requests", requests) ], first @ [ Bench_result.flag "rerun_identical" (first = second) ])

(* ---- bench readmix: lease/backup read fast path vs all-consensus
   reads on a read-heavy mix ---- *)

module Proxy = Crane_core.Proxy

type readmix_run = {
  rm_reads : int;  (** successful read completions *)
  rm_writes : int;  (** successful write completions *)
  rm_errors : int;
  rm_committed : int;  (** consensus log entries decided on the primary *)
  rm_offload : float;
      (** completions per consensus entry — the commit-path offload: reads
          served from leases/watermarks don't spend a consensus round *)
  rm_read_mean : float;  (** mean read latency, ns of virtual time *)
  rm_write_mean : float;
  rm_lease_reads : int;
  rm_backup_reads : int;
  rm_lease_rejects : int;
  rm_wall : Time.t;
}

let readmix_read_pct = 95

(* One measured configuration: a 3-replica Paxos_only ledger cluster
   under a closed-loop 95/5 read/write mix.  [fastpath] selects the read
   route — the proxy read port (lease reads on the primary, bounded-stale
   on backups, consensus fallback on REJECT) or the all-consensus funnel
   every request used before the split. *)
let readmix_run ~seed ~requests ~fastpath =
  let cfg =
    { Instance.default_config with mode = Instance.Paxos_only;
      paxos = fast_paxos; read_fastpath = fastpath }
  in
  let cluster = Cluster.create ~seed ~cfg ~server:Ledger.server () in
  let eng = Cluster.engine cluster in
  Cluster.start ~checkpoints:false cluster;
  (* Let the election settle and the first lease establish, so the mix
     measures the steady state rather than boot-time REJECT fallbacks. *)
  Cluster.run ~until:(Time.ms 800) cluster;
  let target = Target.cluster cluster ~port:80 in
  (* Two read routes: bounded-stale traffic lands on the backups, and
     every fourth read is a linearizable one served off the primary's
     lease — so the bench exercises both halves of the fast path. *)
  let rtarget_stale = Target.cluster_backups cluster ~port:cfg.Instance.read_port in
  let rtarget_lease = Target.cluster cluster ~port:cfg.Instance.read_port in
  let ledger = Ledger.client () in
  let nread = ref 0 in
  let read_request =
    if fastpath then fun _ ~from ->
      incr nread;
      let rtarget = if !nread mod 4 = 0 then rtarget_lease else rtarget_stale in
      Ledger.read_request ~rtarget ~target ~from
    else fun t ~from -> Ledger.consensus_get t ~from
  in
  let handle =
    Loadgen.run ~name:"readmix" ~seed ~think:(Time.ms 2) ~retries:8
      ~retry_backoff:(Time.ms 50) ~read_pct:readmix_read_pct ~read_request ~clients:8 ~requests
      ~request:(Ledger.request ledger) target
  in
  Loadgen.drive ~timeout:(Time.sec 240) target handle;
  let load = handle.Loadgen.collect () in
  Cluster.run ~until:(Engine.now eng + Time.ms 300) cluster;
  Cluster.check_failures cluster;
  let committed =
    match Cluster.primary cluster with
    | Some (_, inst) -> Paxos.committed inst.Instance.paxos
    | None -> 0
  in
  let sum f =
    List.fold_left
      (fun acc (_, inst) -> acc + f (Proxy.stats inst.Instance.proxy))
      0 (Cluster.instances cluster)
  in
  let ok = List.length load.Loadgen.latencies in
  {
    rm_reads = List.length load.Loadgen.read_latencies;
    rm_writes = List.length load.Loadgen.write_latencies;
    rm_errors = load.Loadgen.errors;
    rm_committed = committed;
    rm_offload =
      (if committed = 0 then 0.0 else float_of_int ok /. float_of_int committed);
    rm_read_mean = Stats.mean load.Loadgen.read_latencies;
    rm_write_mean = Stats.mean load.Loadgen.write_latencies;
    rm_lease_reads = sum (fun s -> s.Proxy.lease_reads);
    rm_backup_reads = sum (fun s -> s.Proxy.backup_reads);
    rm_lease_rejects = sum (fun s -> s.Proxy.lease_rejects);
    rm_wall = load.Loadgen.wall;
  }

let readmix_metrics ~fast side r =
  let open Bench_result in
  let key k = side ^ "." ^ k in
  (* only the fast path has to serve reads off the commit path *)
  let served k v =
    if fast then higher (key k) ~bound:1.0 ~unit:"reads" (float v)
    else info (key k) ~unit:"reads" (float v)
  in
  [ info (key "reads") ~unit:"requests" (float r.rm_reads);
    info (key "writes") ~unit:"requests" (float r.rm_writes);
    lower (key "errors") ~bound:0.0 ~unit:"requests" (float r.rm_errors);
    info (key "committed") ~unit:"entries" (float r.rm_committed);
    higher (key "offload") ~digits:3 ~unit:"requests/entry" r.rm_offload;
    lower (key "read_mean_ns") ~digits:0 ~unit:"ns" r.rm_read_mean;
    lower (key "write_mean_ns") ~digits:0 ~unit:"ns" r.rm_write_mean;
    served "lease_reads" r.rm_lease_reads;
    served "backup_reads" r.rm_backup_reads;
    info (key "lease_rejects") ~unit:"reads" (float r.rm_lease_rejects);
    info (key "wall_ns") ~unit:"ns" (float r.rm_wall) ]

let readmix_bench ~quick ~seed =
  let requests = if quick then 1500 else 3000 in
  Printf.printf "bench readmix: %d/%d read/write mix, fast path on...%!" readmix_read_pct
    (100 - readmix_read_pct);
  let fast = readmix_run ~seed ~requests ~fastpath:true in
  Printf.printf " off...%!";
  let base = readmix_run ~seed ~requests ~fastpath:false in
  (* Same seed, fresh cluster: the measurement must be a pure function of
     the seed for the gate (and the drift check) to mean anything. *)
  let fast2 = readmix_run ~seed ~requests ~fastpath:true in
  print_endline " done";
  let fast_metrics = readmix_metrics ~fast:true "fastpath" fast in
  let ratio =
    if base.rm_offload = 0.0 then 0.0 else fast.rm_offload /. base.rm_offload
  in
  ( [ ("requests", requests); ("read_pct", readmix_read_pct) ],
    fast_metrics @ readmix_metrics ~fast:false "consensus" base
    @ Bench_result.
        [ higher "offload_ratio" ~digits:3 ~unit:"x" ~bound:2.0 ratio;
          flag "rerun_identical" (fast_metrics = readmix_metrics ~fast:true "fastpath" fast2) ] )

let servers_cmd () =
  print_endline "available servers:";
  List.iter (fun (n, _) -> Printf.printf "  %s\n" n) all_servers;
  print_endline "modes: native parrot paxos-only crane plan2";
  0

(* Crane-San: happens-before race detection, lock-order lint and the
   determinism certifier over the bundled servers.  Exit is nonzero on
   any NEW finding (see Driver.problems): a race/inversion/cond-hold in
   a target expected clean, a missed seeded race, or a replay-digest
   mismatch. *)
let analyze_cmd targets seed list =
  let module Driver = Crane_analysis.Driver in
  if list then begin
    print_endline "analyze targets:";
    List.iter (fun n -> Printf.printf "  %s\n" n) Driver.target_names;
    0
  end
  else begin
    let targets = match targets with [] -> Driver.target_names | ts -> ts in
    List.iter
      (fun t ->
        if not (List.mem t Driver.target_names) then begin
          Printf.eprintf "unknown analyze target %s (try --list)\n" t;
          exit 2
        end)
      targets;
    let outcomes = Driver.analyze ~seed ~targets () in
    print_string (Driver.render ~seed outcomes);
    if Driver.problems outcomes = [] then 0 else 1
  end

(* ---- Crane-MC: systematic schedule exploration + linearizability ---- *)

module Mc = Crane_analysis.Mc

let mc_print_violation (v : Mc.violation) =
  Printf.printf "VIOLATION (schedule %d): %s — %s\n" v.v_run v.v_invariant
    v.v_detail;
  Printf.printf "counterexample schedule (%d choices):\n"
    (List.length v.v_choices);
  List.iter
    (fun (c : Mc.choice) ->
      Printf.printf "  %-12s %d/%d  %s\n" c.c_label c.c_taken c.c_width c.c_key)
    v.v_choices

(* Wall time goes to stderr: stdout stays deterministic for diffing. *)
let mc_explore ~name cfg =
  let t0 = Sys.time () in
  let o = Mc.explore_mutated cfg in
  let dt = Sys.time () -. t0 in
  Printf.printf "[%s] %d schedules, %d deliveries, %s\n" name o.Mc.o_runs
    o.Mc.o_transitions
    (if o.Mc.o_complete then "explored to bound" else "run budget hit");
  Printf.eprintf "[%s] wall %.1fs\n%!" name dt;
  o

(* Prove the checker finds a reintroduced bug, and that the recorded
   counterexample replays to the same invariant violation. *)
let mc_kill_mutation ~seed m file =
  let cfg = { (Mc.mutation_preset m) with Mc.seed } in
  let name = "mutate:" ^ Mc.mutation_name m in
  let o = mc_explore ~name cfg in
  match o.Mc.o_violation with
  | None ->
    Printf.printf "[%s] NOT KILLED: no violation within the bounds\n" name;
    false
  | Some v ->
    Printf.printf "[%s] killed by %s — %s\n" name v.Mc.v_invariant v.Mc.v_detail;
    Mc.write_trace cfg v file;
    Printf.printf "[%s] counterexample written to %s\n" name file;
    let _, expect, verdict = Mc.replay file in
    (match verdict with
    | Some (inv, _) when inv = expect ->
      Printf.printf "[%s] replay reproduces the %s violation\n" name inv;
      true
    | Some (inv, d) ->
      Printf.printf "[%s] replay diverged: got %s — %s\n" name inv d;
      false
    | None ->
      Printf.printf "[%s] replay FAILED to reproduce the violation\n" name;
      false)

let mc_smoke seed =
  let ok = ref true in
  let clean name cfg =
    let o = mc_explore ~name cfg in
    match o.Mc.o_violation with
    | Some v ->
      mc_print_violation v;
      Mc.write_trace cfg v ("mc_" ^ name ^ ".trace");
      Printf.printf "[%s] counterexample written to mc_%s.trace\n" name name;
      ok := false
    | None -> Printf.printf "[%s] no violations\n" name
  in
  clean "clean" { Mc.default with Mc.seed };
  clean "clean-crash"
    {
      Mc.default with
      Mc.seed;
      clients = 1;
      crash_budget = 1;
      crash_window = 6;
    };
  if not (mc_kill_mutation ~seed Mc.Hole_backfill "mc_hole_backfill.trace") then
    ok := false;
  if not (mc_kill_mutation ~seed Mc.Dup_accept "mc_dup_accept.trace") then
    ok := false;
  if !ok then begin
    print_endline "mc smoke: PASS";
    0
  end
  else begin
    print_endline "mc smoke: FAIL";
    1
  end

let mc_cmd seed replicas clients writes reads crashes drops delay_mult naive
    no_fastpath pool mutate max_branch max_runs trace_out replay smoke =
  match replay with
  | Some path ->
    let cfg, expect, verdict = Mc.replay path in
    Printf.printf "replaying %s (%s, expected violation: %s)\n" path
      (Mc.mutation_name cfg.Mc.mutation)
      (if expect = "" then "?" else expect);
    (match verdict with
    | Some (inv, detail) ->
      Printf.printf "reproduced: %s — %s\n" inv detail;
      if expect = "" || inv = expect then 0 else 1
    | None ->
      print_endline "no violation on replay";
      1)
  | None ->
    if smoke then mc_smoke seed
    else begin
      let base =
        match mutate with Some m -> Mc.mutation_preset m | None -> Mc.default
      in
      let ov v = function Some x -> x | None -> v in
      let cfg =
        {
          base with
          Mc.seed;
          replicas = ov base.Mc.replicas replicas;
          clients = ov base.Mc.clients clients;
          writes = ov base.Mc.writes writes;
          reads = ov base.Mc.reads reads;
          crash_budget = ov base.Mc.crash_budget crashes;
          drop_budget = ov base.Mc.drop_budget drops;
          delays =
            (match delay_mult with
            | Some m when m > 1 -> [| 1; m |]
            | _ -> base.Mc.delays);
          dpor = not naive;
          read_fastpath = base.Mc.read_fastpath && not no_fastpath;
          pool_workers = ov base.Mc.pool_workers pool;
          max_branch = ov base.Mc.max_branch max_branch;
          max_runs = ov base.Mc.max_runs max_runs;
        }
      in
      let name =
        match mutate with
        | Some m -> "mutate:" ^ Mc.mutation_name m
        | None -> "explore"
      in
      let o = mc_explore ~name cfg in
      match (o.Mc.o_violation, mutate) with
      | Some v, _ ->
        mc_print_violation v;
        (match trace_out with
        | Some file ->
          Mc.write_trace cfg v file;
          Printf.printf "counterexample written to %s\n" file
        | None -> ());
        (* finding the reintroduced bug is the expected outcome *)
        if mutate = None then 1 else 0
      | None, Some _ ->
        print_endline "mutation NOT killed within the bounds";
        1
      | None, None ->
        print_endline "no violations";
        0
    end

(* ---- profile: commit critical path and the what-if latency lab ---- *)

module Critical_path = Crane_trace.Critical_path

type whatif = Fsync2x | Nobatch

let all_whatifs = [ ("fsync2x", Fsync2x); ("nobatch", Nobatch) ]

let whatif_name w = fst (List.find (fun (_, v) -> v = w) all_whatifs)

let whatif_doc = function
  | Fsync2x -> "WAL fsync device 2x faster"
  | Nobatch -> "proxy batch delay removed"

(* Virtual speedup, Coz-style: instead of sampling and inflating
   everything else, the simulator re-runs the same seed with one stage's
   modeled cost scaled, and the delta is measured end to end. *)
let whatif_cfg (cfg : Instance.config) = function
  | Fsync2x -> { cfg with Instance.wal_write_latency = cfg.Instance.wal_write_latency / 2 }
  | Nobatch -> { cfg with Instance.batch_delay = 0 }

type profile_run = {
  p_report : Critical_path.report;
  p_load : Loadgen.result;
  p_trace : Trace.t;
}

let profiled_run choice ~clients ~requests ~seed ~tweak =
  let server, port = server_of choice in
  let rng = Rng.create (seed + 1) in
  let request = request_of choice rng in
  let tr = Trace.create () in
  let cfg =
    { Instance.default_config with mode = Instance.Full; service_port = port;
      paxos = fast_paxos }
  in
  let cfg = match tweak with None -> cfg | Some w -> whatif_cfg cfg w in
  let cluster = Cluster.create ~seed ~cfg ~trace:tr ~server () in
  Cluster.start cluster;
  let target = Target.cluster cluster ~port in
  let handle = Loadgen.run ~clients ~requests ~request target in
  Loadgen.drive ~timeout:(Time.sec 3600) target handle;
  (* let trailing closes commit and backup admissions land so the last
     span DAGs are complete before analysis *)
  let eng = Cluster.engine cluster in
  Cluster.run ~until:(Engine.now eng + Time.ms 500) cluster;
  Cluster.check_failures cluster;
  { p_report = Critical_path.analyze tr; p_load = handle.Loadgen.collect (); p_trace = tr }

let whatif_row ~base ~variant w =
  let b = base.p_report.Critical_path.e2e and v = variant.p_report.Critical_path.e2e in
  let delta = b.Metrics.mean -. v.Metrics.mean in
  [ whatif_name w; whatif_doc w;
    Printf.sprintf "%.1f" (b.Metrics.mean /. 1e3);
    Printf.sprintf "%.1f" (v.Metrics.mean /. 1e3);
    Printf.sprintf "%+.1f" (delta /. 1e3);
    (if b.Metrics.mean > 0.0 then Printf.sprintf "%+.1f%%" (100. *. delta /. b.Metrics.mean)
     else "-") ]

let profile_cmd choice clients requests seed whatifs trace_out =
  let name = fst (List.find (fun (_, c) -> c = choice) all_servers) in
  Printf.printf "profiling %s: %d clients, %d requests, seed %d (crane mode)\n"
    name clients requests seed;
  let base = profiled_run choice ~clients ~requests ~seed ~tweak:None in
  print_string (Critical_path.render base.p_report);
  if whatifs <> [] then begin
    let rows =
      List.map
        (fun w ->
          let variant = profiled_run choice ~clients ~requests ~seed ~tweak:(Some w) in
          whatif_row ~base ~variant w)
        whatifs
    in
    Table.print ~title:"what-if latency lab (same seed, virtual speedup)"
      ~header:[ "what-if"; "change"; "base e2e mean us"; "e2e mean us"; "delta us"; "delta" ]
      rows;
    print_newline ()
  end;
  (match trace_out with
  | Some path -> (
    match open_out path with
    | oc ->
      output_string oc (Trace.to_chrome base.p_trace);
      close_out oc;
      (* stderr: the report on stdout stays byte-comparable across runs
         regardless of export options *)
      Printf.eprintf "base-run trace -> %s\n" path
    | exception Sys_error msg ->
      Printf.eprintf "crane: cannot write trace: %s\n" msg;
      exit 1)
  | None -> ());
  if base.p_report.Critical_path.errors <> [] then begin
    Printf.printf "profile: %d malformed span DAG(s)\n"
      (List.length base.p_report.Critical_path.errors);
    1
  end
  else 0

(* ---- bench latency: stage decomposition + what-if deltas ---- *)

let summary_metrics ?better key (s : Metrics.summary) =
  let open Bench_result in
  let ns k v = make ?better ~unit:"ns" (key ^ "." ^ k) (float v) in
  [ info (key ^ ".count") (float s.Metrics.count);
    ns "p50_ns" s.Metrics.p50; ns "p90_ns" s.Metrics.p90; ns "p99_ns" s.Metrics.p99;
    ns "max_ns" s.Metrics.max;
    make ?better ~digits:0 ~unit:"ns" (key ^ ".mean_ns") s.Metrics.mean;
    info (key ^ ".total_ns") ~unit:"ns" (float s.Metrics.total) ]

let latency_metrics name base variants =
  let open Bench_result in
  let r = base.p_report in
  let key k = name ^ "." ^ k in
  let e2e_mean run = run.p_report.Critical_path.e2e.Metrics.mean in
  [ info (key "committed") ~unit:"requests" (float r.Critical_path.committed);
    info (key "complete") ~unit:"requests" (float r.Critical_path.complete);
    higher (key "coverage") ~digits:4 ~bound:0.99 ~unit:"fraction" r.Critical_path.coverage;
    lower (key "span_errors") ~bound:0.0 ~unit:"DAGs" (float (List.length r.Critical_path.errors)) ]
  @ summary_metrics ~better:Lower (key "e2e") r.Critical_path.e2e
  @ List.concat_map
      (fun row -> summary_metrics (key row.Critical_path.stage) row.Critical_path.summary)
      r.Critical_path.stages
  @ List.concat_map
      (fun (w, v) ->
        let key k = name ^ "." ^ whatif_name w ^ "." ^ k in
        [ lower (key "e2e_mean_ns") ~digits:0 ~unit:"ns" (e2e_mean v);
          info (key "delta_ns") ~digits:0 ~unit:"ns" (e2e_mean base -. e2e_mean v);
          info (key "coverage") ~digits:4 ~unit:"fraction" v.p_report.Critical_path.coverage ])
      variants
  @ [ flag (key "fsync2x_moved") (e2e_mean base <> e2e_mean (List.assoc Fsync2x variants)) ]

let latency_bench ~quick ~seed =
  let clients = if quick then 4 else 8 in
  let requests = if quick then 60 else 200 in
  let metrics =
    List.concat_map
      (fun (name, choice) ->
        Printf.printf "latency %s: base...%!" name;
        let base = profiled_run choice ~clients ~requests ~seed ~tweak:None in
        let variants =
          List.map
            (fun (wname, w) ->
              Printf.printf " %s...%!" wname;
              (w, profiled_run choice ~clients ~requests ~seed ~tweak:(Some w)))
            all_whatifs
        in
        Printf.printf " coverage %.1f%%\n" (100. *. base.p_report.Critical_path.coverage);
        latency_metrics name base variants)
      all_servers
  in
  ([ ("clients", clients); ("requests", requests) ], metrics)

(* ---- bench parallel: dependency-aware parallel delivery ---- *)

module Certifier = Crane_analysis.Certifier
module Api = Crane_core.Api

type papp = PLedger | PMysql | PHttp

let all_papps = [ ("ledger", PLedger); ("mysql", PMysql); ("http", PHttp) ]

(* Compute-heavy variants: execute windows must overlap under the
   1-lane baseline for the bench to measure the rotation stalls the
   pool removes (a thread that becomes lane head mid-compute stalls the
   whole lane until its next turn operation).  The apache profile's
   70 ms pages would dominate the run wall-clock, so the http variant
   uses smaller pages.  The mysql profile is weighted toward the
   buffer-pool latch walk — many short critical sections, each a turn
   operation.  Long uniform compute sleeps pipeline through one lane
   almost losslessly (each thread gets a turn per rotation while the
   others sleep), so it is exactly this op-dominated locking — the
   paper's Figure 14 culprit — that a single lane serializes and a
   per-lane pool recovers. *)
let papp_server = function
  | PLedger -> (Ledger.server, 80)
  | PMysql ->
    let cfg =
      { Crane_apps.Mysql.default_config with
        Crane_apps.Mysql.lookup_cost = Time.us 2000;
        bufpool_ops = 20;
        bufpool_op_cost = Time.us 30 }
    in
    (Crane_apps.Mysql.server ~cfg (), 3306)
  | PHttp ->
    let cfg =
      { Crane_apps.Apache.default_config with
        Crane_apps.Http_server.php_segments = 6;
        segment_cost = Time.us 800 }
    in
    (Crane_apps.Http_server.make ~name:"http" ~cfg, 80)

(* Per-request arrival period.  Clients fire their k-th request at a
   fixed virtual instant (storm + (k-1) * cycle), so all clients'
   commands commit — and want to execute — in the same window: the
   1-lane baseline must interleave them through one rotation while the
   pool spreads them over lanes.  The cycle leaves room for the
   baseline's inflated windows; a slow request just slips its client's
   schedule without affecting the others'. *)
let papp_cycle = function
  | PLedger -> Time.ms 10
  | PMysql -> Time.ms 25
  | PHttp -> Time.ms 35

(* Per-client phase offset within a cycle.  One lane only starves a
   thread when its short turn-taking ops (latch walks) rotate behind
   other threads' long compute sleeps; identical clients fired in
   lockstep move through those phases together and pipeline instead.
   A large mysql stagger makes one client's latch walk overlap the
   others' B-tree segments — the collision the pool dissolves. *)
let papp_stagger = function
  | PLedger | PHttp -> Time.us 13
  | PMysql -> Time.us 700

(* One request of client [c]'s deterministic sequence.  All three
   workloads are read-only on disjoint (or read-shared) footprints, so
   the pooled schedule's responses cannot depend on cross-client
   interleaving — which is what lets the byte-identity probe demand
   pool-on and pool-off transcripts be equal. *)
let papp_issue app ~target ~c ~k ~from =
  match app with
  | PLedger -> Ledger.consensus_get target ~from
  | PMysql -> (
    let table = 1 + ((c - 1) mod 16) in
    let id = 1 + ((37 * c) + (11 * k) mod 2000) in
    match Target.connect target ~from with
    | None -> None
    | Some conn ->
      let result =
        match
          Clients.read_until conn ~stop:(fun r ->
              Crane_apps.Str_util.find_sub r "ready" <> None)
        with
        | None -> None
        | Some _banner ->
          Sock.send conn (Printf.sprintf "SELECT c FROM sbtest%d WHERE id=%d\n" table id);
          Clients.read_until conn ~stop:(fun r ->
              Crane_apps.Str_util.find_sub r "\n" <> None)
      in
      Sock.close conn;
      result)
  | PHttp ->
    let path =
      if k mod 3 = 0 then Printf.sprintf "/static/page%d.html" c
      else "/test.php"
    in
    Clients.http_request target ~from ~meth:"GET" ~path ()

type parallel_run = {
  pr_exec_mean : float;  (** mean execute-stage latency, virtual ns *)
  pr_e2e_mean : float;
  pr_ok : int;
  pr_errors : int;
  pr_outputs : string;  (** canonical per-client transcript, times stripped *)
  pr_state : string;  (** primary's application state at the end *)
  pr_cert : Certifier.report;
  pr_committed : int;
}

let parallel_run app ~pool ~clients ~per_client ~seed =
  let server, port = papp_server app in
  let tr = Trace.create () in
  let cfg =
    { Instance.default_config with mode = Instance.Full; service_port = port;
      paxos = fast_paxos; pool_workers = pool }
  in
  let cluster = Cluster.create ~seed ~cfg ~trace:tr ~server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let target = Target.cluster cluster ~port in
  (* Let the election settle so every measured request rides a stable
     primary. *)
  Cluster.run ~until:(Time.ms 800) cluster;
  (* Ledger: seed a fixed prefix sequentially, so the GET storm reads
     stable data (and the PUT/barrier admission path runs under the
     pool too). *)
  (match app with
  | PLedger ->
    let seeded = ref false in
    Engine.spawn eng ~name:"par-seed" (fun () ->
        let lc = Ledger.client () in
        for _ = 1 to 6 do
          ignore (Ledger.request lc target ~from:"par-seed")
        done;
        seeded := true);
    let rec settle () =
      if (not !seeded) && Engine.now eng < Time.sec 60 then begin
        Cluster.run ~until:(Engine.now eng + Time.ms 100) cluster;
        settle ()
      end
    in
    settle ()
  | PMysql | PHttp -> ());
  let storm_at = Engine.now eng + Time.ms 200 in
  let transcripts = Array.make (clients + 1) [] in
  let errors = ref 0 and ok = ref 0 and live = ref clients in
  for c = 1 to clients do
    Engine.spawn eng ~name:(Printf.sprintf "par-client%d" c) (fun () ->
        let from = Printf.sprintf "par-c%d" c in
        let cycle = papp_cycle app in
        let stagger = papp_stagger app in
        for k = 1 to per_client do
          (* Absolute, staggered fire instants: the arrival schedule is
             a pure function of the seed phase, not of response
             latencies. *)
          Engine.sleep eng
            (max 0
               (storm_at + ((k - 1) * cycle) + (c * stagger)
               - Engine.now eng));
          (match papp_issue app ~target ~c ~k ~from with
          | Some r ->
            incr ok;
            transcripts.(c) <- Output_log.normalize_payload r :: transcripts.(c)
          | None ->
            incr errors;
            transcripts.(c) <- "<fail>" :: transcripts.(c))
        done;
        decr live)
  done;
  let deadline = Engine.now eng + Time.sec 600 in
  let rec go () =
    if !live > 0 && Engine.now eng < deadline then begin
      Cluster.run ~until:(Engine.now eng + Time.ms 500) cluster;
      go ()
    end
  in
  go ();
  (* Drain trailing closes so the last execute windows end before
     analysis. *)
  Cluster.run ~until:(Engine.now eng + Time.ms 500) cluster;
  Cluster.check_failures cluster;
  let cp = Critical_path.analyze tr in
  (* The delivery stage under test is commit -> reply: admission wait
     plus execution.  The raw execute window (admit -> reply) is blind
     to the 1-lane baseline's cost by construction — legacy admits a
     command only when its connection's thread consumes it from the
     sequence head, so head-of-line queueing behind a busy connection
     is charged to sched_wait and the late-admitted window still spans
     just the solo compute.  Gating on the sum keeps both modes on the
     same anchors. *)
  let stage_mean name =
    match
      List.find_opt (fun s -> s.Critical_path.stage = name) cp.Critical_path.stages
    with
    | Some s -> s.Critical_path.summary.Metrics.mean
    | None -> 0.0
  in
  let exec_mean = stage_mean "sched_wait" +. stage_mean "execute" in
  let state, committed =
    match Cluster.primary cluster with
    | Some (_, inst) ->
      (inst.Instance.handle.Api.state_of (), Paxos.committed inst.Instance.paxos)
    | None -> ("", 0)
  in
  if Sys.getenv_opt "CRANE_PAR_DEBUG" <> None then begin
    let pname =
      match Cluster.primary cluster with Some (n, _) -> n | None -> ""
    in
    let resolve = Crane_trace.Trace.resolve_node tr in
    let admits = ref [] and replies = ref [] in
    List.iter
      (fun (ev : Crane_trace.Trace.ev) ->
        let node = resolve ev in
        if node = pname then
          match (ev.Crane_trace.Trace.cat, ev.Crane_trace.Trace.name) with
          | "seq", "admit" ->
            let ix =
              Option.value (Crane_trace.Trace.find_int ev "index") ~default:0
            and conn =
              Option.value (Crane_trace.Trace.find_int ev "conn") ~default:(-1)
            in
            admits := (ev.Crane_trace.Trace.ts, ix, conn) :: !admits
          | "req", "reply" ->
            let conn =
              Option.value (Crane_trace.Trace.find_int ev "conn") ~default:(-1)
            in
            replies := (ev.Crane_trace.Trace.ts, conn) :: !replies
          | "exec", "begin" ->
            Printf.eprintf "exec.begin ts=%d ix=%d conn=%d lane=%d\n"
              ev.Crane_trace.Trace.ts
              (Option.value (Crane_trace.Trace.find_int ev "index") ~default:0)
              (Option.value (Crane_trace.Trace.find_int ev "conn") ~default:(-1))
              (Option.value (Crane_trace.Trace.find_int ev "lane") ~default:(-1))
          | _ -> ())
      (Crane_trace.Trace.events tr);
    let admits = List.rev !admits and replies = List.rev !replies in
    Printf.eprintf "-- windows (pool=%d) --\n" pool;
    List.iter
      (fun (ats, ix, conn) ->
        match
          List.find_opt (fun (rts, rc) -> rc = conn && rts >= ats) replies
        with
        | Some (rts, _) ->
          Printf.eprintf "ix=%d conn=%d admit=%d reply=%d win=%dus\n" ix conn
            ats rts ((rts - ats) / 1000)
        | None -> Printf.eprintf "ix=%d conn=%d admit=%d reply=-\n" ix conn ats)
      admits
  end;
  let outputs =
    String.concat "\x00"
      (List.mapi
         (fun c t ->
           Printf.sprintf "c%d:%s" c (String.concat "|" (List.rev t)))
         (Array.to_list transcripts))
  in
  {
    pr_exec_mean = exec_mean;
    pr_e2e_mean = cp.Critical_path.e2e.Metrics.mean;
    pr_ok = !ok;
    pr_errors = !errors;
    pr_outputs = outputs;
    pr_state = state;
    pr_cert = Certifier.check tr;
    pr_committed = committed;
  }

let parallel_side key (r : parallel_run) =
  let open Bench_result in
  let key k = key ^ "." ^ k in
  let c = r.pr_cert in
  [ lower (key "commit_reply_mean_ns") ~digits:0 ~unit:"ns" r.pr_exec_mean;
    lower (key "e2e_mean_ns") ~digits:0 ~unit:"ns" r.pr_e2e_mean;
    info (key "ok") ~unit:"requests" (float r.pr_ok);
    lower (key "errors") ~bound:0.0 ~unit:"requests" (float r.pr_errors);
    info (key "committed") ~unit:"entries" (float r.pr_committed);
    info (key "cert_windows") (float c.Certifier.windows);
    info (key "cert_commands") (float c.Certifier.commands);
    info (key "cert_locations") (float c.Certifier.locations);
    info (key "cert_confined") (float c.Certifier.confined);
    info (key "cert_violations") (float (List.length c.Certifier.violations)) ]

let parallel_bench ~quick ~seed =
  let clients = 8 and workers = 4 in
  let per_client = if quick then 6 else 16 in
  let results =
    List.map
      (fun (name, app) ->
        Printf.printf "parallel %s: pool off...%!" name;
        let serial = parallel_run app ~pool:1 ~clients ~per_client ~seed in
        Printf.printf " pool x%d...%!" workers;
        let pooled = parallel_run app ~pool:workers ~clients ~per_client ~seed in
        let speedup =
          if pooled.pr_exec_mean > 0.0 then serial.pr_exec_mean /. pooled.pr_exec_mean
          else 0.0
        in
        let identical =
          String.equal serial.pr_outputs pooled.pr_outputs
          && String.equal serial.pr_state pooled.pr_state
        in
        let certified = Certifier.certified pooled.pr_cert in
        Printf.printf " %.2fx\n" speedup;
        if not certified then print_string (Certifier.render pooled.pr_cert);
        ( speedup,
          parallel_side (name ^ ".serial") serial @ parallel_side (name ^ ".pooled") pooled
          @ Bench_result.
              [ higher (name ^ ".speedup") ~digits:2 ~unit:"x" speedup;
                flag (name ^ ".outputs_identical") identical;
                flag (name ^ ".certified") certified ] ))
      all_papps
  in
  let best = List.fold_left (fun acc (s, _) -> max acc s) 0.0 results in
  ( [ ("clients", clients); ("workers", workers); ("per_client", per_client) ],
    List.concat_map snd results
    @ [ Bench_result.higher "best_speedup" ~digits:2 ~unit:"x" ~bound:1.5 best ] )

(* ---- bench engine: the event engine's work and host cost on one fixed
   world.  The logical event counts are a pure function of the seed and
   the engine's elision rules, so they are drift-checked; events per host
   second and words allocated per event depend on the host and compiler,
   so they are informational.  Both host figures cover the load phase
   only (not the cluster's install and boot) and use logical events
   (dispatched + elided) as the denominator, which elision does not
   change.  [live_conns], the connection ids the socket layer still
   tracks once the load is done, is gated at two per client: a closed
   connection that is never forgotten fails the check. ---- *)

let engine_bench ~quick ~seed =
  let clients = 4 and requests = if quick then 2000 else 10000 in
  Printf.printf "bench engine: full CRANE mysql, %d clients, %d requests...%!" clients requests;
  let world () =
    let server, port = server_of Mysql in
    let request = request_of Mysql (Rng.create (seed + 1)) in
    let cfg =
      { Instance.default_config with mode = Instance.Full; service_port = port; paxos = fast_paxos }
    in
    let cluster = Cluster.create ~seed ~cfg ~server () in
    Cluster.start cluster;
    let eng = Cluster.engine cluster in
    let logical () = Engine.dispatched eng + Engine.elided eng in
    let events0 = logical () and cpu0 = Sys.time () and bytes0 = Gc.allocated_bytes () in
    let target = Target.cluster cluster ~port in
    let handle = Loadgen.run ~clients ~requests ~request target in
    Loadgen.drive ~timeout:(Time.sec 3600) target handle;
    let cpu = Sys.time () -. cpu0 and bytes = Gc.allocated_bytes () -. bytes0 in
    let live = Sock.live_connections (Cluster.world cluster) in
    Cluster.check_failures cluster;
    let events = float (logical () - events0) in
    let result = handle.Loadgen.collect () in
    ( (Engine.dispatched eng, Engine.elided eng, live, result.Loadgen.latencies, result.Loadgen.errors),
      events /. cpu, bytes /. float (Sys.word_size / 8) /. events )
  in
  let ((dispatched, elided, live, _, errors) as first), events_per_s, words_per_event = world () in
  (* Same seed, fresh world: the counts the drift check compares must be
     a pure function of the seed. *)
  let second, _, _ = world () in
  Printf.printf " %.2f M events/s, %.1f words/event\n" (events_per_s /. 1e6) words_per_event;
  ( [ ("clients", clients); ("requests", requests) ],
    Bench_result.
      [ lower "dispatched" (float dispatched);
        higher "elided" (float elided);
        lower "live_conns" ~bound:(float (2 * clients)) (float live);
        info "events_per_s" ~digits:0 ~unit:"events/s" events_per_s;
        info "words_per_event" ~digits:1 ~unit:"words/event" words_per_event;
        lower "errors" ~bound:0.0 (float errors);
        flag "rerun_identical" (first = second) ] )

(* ---- bench: one runner for every driver above.  A driver returns its
   workload sizes and metrics; the runner adds the seed and quick to the
   configuration, writes the JSON, prints the table and applies the
   gate. ---- *)

let bench_main name run quick seed out check =
  let sizes, metrics = run ~quick ~seed in
  let result =
    { Bench_result.bench = name;
      config = ("seed", seed) :: ("quick", Bool.to_int quick) :: sizes;
      metrics }
  in
  Bench_result.print result;
  (match Bench_result.write out result with
  | () -> Printf.printf "wrote %s (%d metrics)\n" out (List.length metrics)
  | exception Sys_error msg ->
    Printf.eprintf "crane: cannot write %s: %s\n" out msg;
    exit 1);
  if not check then 0
  else
    match Bench_result.gate result with
    | [] ->
      Printf.printf "CHECK OK: %d gated metrics within their bounds\n"
        (List.length (List.filter (fun m -> m.Bench_result.bound <> None) metrics));
      0
    | failed ->
      List.iter
        (fun m ->
          Printf.printf "CHECK FAIL: %s = %s, gate %s\n" m.Bench_result.name
            (Bench_result.number m.Bench_result.value) (Bench_result.bound_text m))
        failed;
      1

let bench_drift_cmd baseline current =
  match (Bench_result.read baseline, Bench_result.read current) with
  | Error msg, _ | _, Error msg ->
    Printf.eprintf "crane: cannot read %s\n" msg;
    2
  | Ok b, Ok c -> (
    match Bench_result.drift ~baseline:b ~current:c with
    | Error msg ->
      Printf.eprintf "crane: %s is not comparable with %s: %s\n" current baseline msg;
      2
    | Ok [] ->
      Printf.printf "drift ok: %s, %d metrics within %.0f%% of %s\n" b.Bench_result.bench
        (List.length (List.filter (fun m -> m.Bench_result.better <> None) b.Bench_result.metrics))
        (100. *. Bench_result.drift_tolerance) baseline;
      0
    | Ok regressions ->
      List.iter
        (fun (r : Bench_result.regression) ->
          Printf.printf "DRIFT: %s %s = %s, baseline %s, limit %s\n" b.Bench_result.bench
            r.metric (Bench_result.number r.current) (Bench_result.number r.baseline)
            (Bench_result.number r.limit))
        regressions;
      1)

(* ---- cmdliner plumbing ---- *)

let server_arg =
  let choice = Arg.enum all_servers in
  Arg.(value & opt choice Apache & info [ "server"; "s" ] ~doc:"Server program to run.")

let mode_arg =
  let choice = Arg.enum all_modes in
  Arg.(value & opt choice Crane & info [ "mode"; "m" ] ~doc:"Deployment mode.")

let clients_arg = Arg.(value & opt int 8 & info [ "clients"; "c" ] ~doc:"Concurrent clients.")
let requests_arg = Arg.(value & opt int 100 & info [ "requests"; "n" ] ~doc:"Total requests.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

let format_arg =
  let choice = Arg.enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ] in
  Arg.(value & opt choice `Chrome
       & info [ "format"; "f" ] ~doc:"Trace output format: chrome (trace_event JSON) or jsonl.")

let out_arg =
  Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~doc:"Trace output file.")

let scenario_arg =
  Arg.(value & opt (some string) None
       & info [ "scenario" ] ~doc:"Chaos scenario to run (default: the whole suite).")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List built-in chaos scenarios and exit.")

let quick_arg =
  Arg.(value & flag
       & info [ "quick" ]
           ~doc:"Smaller workload for CI: 200 ms streams and 12 probe requests \
                 instead of 1 s and 32 (batching), histories up to 2000 instead \
                 of 8000 (recovery), 4 clients x 60 requests instead of 8 x 200 \
                 (latency), 4000 requests instead of 8000 (reconfig), 1500 \
                 instead of 3000 (readmix), 6 requests per client instead of 16 \
                 (parallel), 2000 requests instead of 10000 (engine).")

let bench_check_arg =
  Arg.(value & flag
       & info [ "check" ]
           ~doc:"Exit nonzero unless every gated metric meets its bound (the \
                 gate column of the printed table).")

let run_term = Term.(const run_cmd $ server_arg $ mode_arg $ clients_arg $ requests_arg $ seed_arg)
let failover_term = Term.(const failover_cmd $ server_arg $ seed_arg)
let servers_term = Term.(const servers_cmd $ const ())

let chaos_term = Term.(const chaos_cmd $ scenario_arg $ seed_arg $ list_arg)

let trace_term =
  Term.(const trace_cmd $ server_arg $ mode_arg $ clients_arg $ requests_arg
        $ seed_arg $ format_arg $ out_arg)

let analyze_targets_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"TARGET" ~doc:"Targets to analyze (default: all; see --list).")

let analyze_list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List analyze targets and exit.")

let analyze_term =
  Term.(const analyze_cmd $ analyze_targets_arg $ seed_arg $ analyze_list_arg)

let mc_opt_int names doc =
  Arg.(value & opt (some int) None & info names ~doc)

let mc_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")

let mc_mutate_arg =
  let choice =
    Arg.enum
      [ ("hole-backfill", Mc.Hole_backfill); ("dup-accept", Mc.Dup_accept) ]
  in
  Arg.(value & opt (some choice) None
       & info [ "mutate" ]
           ~doc:"Reintroduce a fixed paxos bug (hole-backfill, dup-accept) \
                 and require the checker to find it: exit 0 iff a violation \
                 is found and its counterexample replays.")

let mc_naive_arg =
  Arg.(value & flag
       & info [ "naive" ]
           ~doc:"Disable DPOR: enumerate every delivery interleaving \
                 (baseline for the pruning-factor measurement).")

let mc_no_fastpath_arg =
  Arg.(value & flag
       & info [ "no-fastpath" ] ~doc:"Disable the read fast path (all reads \
                                      go through consensus).")

let mc_trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ]
           ~doc:"Write the counterexample schedule to this file (replayable \
                 with --replay).")

let mc_replay_arg =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Re-execute a recorded counterexample trace and report \
                 whether the violation reproduces.")

let mc_smoke_arg =
  Arg.(value & flag
       & info [ "smoke" ]
           ~doc:"CI matrix: explore a clean config with and without a crash \
                 (expect no violations), then prove both mutations are \
                 killed with replayable counterexamples.")

let mc_term =
  Term.(const mc_cmd $ mc_seed_arg
        $ mc_opt_int [ "replicas" ] "Cluster size (default 3)."
        $ mc_opt_int [ "clients" ] "Concurrent clients (default 2)."
        $ mc_opt_int [ "writes" ] "Writes per client (default 2)."
        $ mc_opt_int [ "reads" ] "Fast-path reads per client (default 1)."
        $ mc_opt_int [ "crashes" ] "Crash budget (default 0)."
        $ mc_opt_int [ "drops" ] "Message-drop budget (default 0)."
        $ mc_opt_int [ "delay-mult" ]
            "Arm a second delivery-latency bucket at this multiple of the \
             base latency."
        $ mc_naive_arg $ mc_no_fastpath_arg
        $ mc_opt_int [ "pool" ] "Parallel-pool workers (default 1)."
        $ mc_mutate_arg
        $ mc_opt_int [ "max-branch" ]
            "Branchable choice points per execution (default 18)."
        $ mc_opt_int [ "max-runs" ] "Schedule budget (default 3000)."
        $ mc_trace_out_arg $ mc_replay_arg $ mc_smoke_arg)

let whatif_arg =
  let choice = Arg.enum all_whatifs in
  Arg.(value & opt_all choice []
       & info [ "what-if"; "w" ]
           ~doc:"Re-run the same seed with a stage's virtual cost scaled and \
                 report the end-to-end delta (fsync2x, nobatch); repeatable.")

let profile_trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ]
           ~doc:"Also export the base run's trace (chrome trace_event JSON).")

let profile_term =
  Term.(const profile_cmd $ server_arg $ clients_arg $ requests_arg $ seed_arg
        $ whatif_arg $ profile_trace_out_arg)

(* Each driver's metric list carries its gate bounds; [--check] and the
   printed table show them. *)
let benches =
  [ ( "batching",
      "Measure batched vs. unbatched commit throughput, and probe every \
       server for fixed-seed output equivalence.",
      batching_bench );
    ( "recovery",
      "Measure straggler recovery time and peak resident log with \
       compaction on vs. off.",
      recovery_bench );
    ( "latency",
      "Decompose commit latency into critical-path stages per server and \
       measure what-if deltas.",
      latency_bench );
    ( "reconfig",
      "Measure client-visible unavailability while the killed primary is \
       replaced through a live membership change.",
      reconfig_bench );
    ( "readmix",
      "Measure commit-path offload of lease/bounded-stale reads vs. \
       all-consensus reads on a 95/5 read/write mix.",
      readmix_bench );
    ( "parallel",
      "Measure the commit-to-reply speedup of dependency-aware parallel \
       delivery (worker pool on vs. off), with the byte-identity probe and \
       the Crane-San schedule certifier.",
      parallel_bench );
    ( "engine",
      "Measure the event engine's logical event counts (dispatched and \
       elided), events per host second and words allocated per event on \
       one fixed full-CRANE MySQL world.",
      engine_bench ) ]

let bench_subcommand (bench, doc, run) =
  let json = Printf.sprintf "BENCH_%s.json" bench in
  let out = Arg.(value & opt string json & info [ "out"; "o" ] ~doc:"Result JSON file.") in
  Cmd.v
    (Cmd.info bench ~doc:(Printf.sprintf "%s Writes %s." doc json))
    Term.(const (bench_main bench run) $ quick_arg $ seed_arg $ out $ bench_check_arg)

let drift_baseline_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"BASELINE" ~doc:"Committed baseline bench JSON.")

let drift_current_arg =
  Arg.(required & pos 1 (some string) None
       & info [] ~docv:"CURRENT" ~doc:"Freshly produced bench JSON.")

let bench_drift_term = Term.(const bench_drift_cmd $ drift_baseline_arg $ drift_current_arg)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run a workload against a server in a chosen deployment mode.") run_term;
    Cmd.v (Cmd.info "failover" ~doc:"Kill the primary under load, recover from a checkpoint.") failover_term;
    Cmd.v (Cmd.info "chaos" ~doc:"Run the deterministic fault-injection suite and check SMR invariants.") chaos_term;
    Cmd.v (Cmd.info "trace" ~doc:"Run a workload with the flight recorder on; export the trace and metrics.") trace_term;
    Cmd.group
      (Cmd.info "bench"
         ~doc:"Benchmarks: batching, recovery, latency, reconfig, readmix and \
               parallel each write one result JSON; drift compares a result \
               against a committed baseline.")
      (List.map bench_subcommand benches
      @ [ Cmd.v
            (Cmd.info "drift"
               ~doc:"Compare a bench result with a committed baseline: exit 1 \
                     if a metric with a better direction moved more than 20% \
                     the worse way, 2 if the two results ran different \
                     configurations.")
            bench_drift_term ]);
    Cmd.v
      (Cmd.info "profile"
         ~doc:"Commit critical-path profile: per-stage latency decomposition, \
               per-view stalls, blocked-on attribution, what-if latency lab.")
      profile_term;
    Cmd.v
      (Cmd.info "mc"
         ~doc:"Crane-MC: systematically explore delivery orders, drops, \
               delays and crashes with DPOR; check SMR invariants and \
               linearizability of the client history at every terminal \
               state.")
      mc_term;
    Cmd.v
      (Cmd.info "analyze"
         ~doc:"Crane-San: race detection, lock-order lint and determinism \
               certification across the bundled servers and runtimes.")
      analyze_term;
    Cmd.v (Cmd.info "servers" ~doc:"List available servers and modes.") servers_term;
  ]

let () =
  let info = Cmd.info "crane" ~doc:"CRANE: transparent state machine replication (simulated)." in
  exit (Cmd.eval' (Cmd.group info cmds))
