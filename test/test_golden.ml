(* Golden cross-commit determinism.  The other determinism tests compare
   two runs of one build, so they cannot see an engine or scheduler
   change that shifts a schedule consistently.  These pin digests of
   three short worlds — full-CRANE MySQL, Apache with PARROT hints, and
   a PAXOS-only ledger whose primary is killed under load — to values
   recorded before the sleep-elision engine.  A digest covers every
   replica's output log, Paxos stats and DMT logical clock, the client
   replies and the final virtual instant; the traced run must reproduce
   the untraced state digest and pin its JSONL export too.

   A change that is meant to move a schedule re-pins these digests and
   says why; any other change must leave them alone. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Paxos = Crane_paxos.Paxos
module Dmt = Crane_dmt.Dmt
module Trace = Crane_trace.Trace
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Output_log = Crane_core.Output_log
module Target = Crane_workload.Target
module Clients = Crane_workload.Clients
module Ledger = Crane_chaos.Ledger

let paxos_cfg =
  { Paxos.default_config with
    Paxos.heartbeat_period = Time.ms 200; election_timeout = Time.ms 600;
    election_jitter = Time.ms 100; round_retry = Time.ms 200 }

let stats_line (s : Paxos.stats) =
  Printf.sprintf "dec=%d vc=%d abd=%d cs=%d ci=%d pend=%d el=%d bc=%d ebp=%s mb=%d \
                  cmp=%d ss=%d si=%d base=%d res=%d peak=%d ep=%d rc=%d fd=%d lh=%d"
    s.decisions s.view_changes s.abdications s.catchup_served s.catchup_installed
    s.pending
    (Option.value s.last_election_duration ~default:(-1))
    s.batches_committed
    (String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%d:%d" k n) s.events_per_batch))
    s.max_batch s.compactions s.snapshots_served s.snapshots_installed s.log_base
    s.log_resident s.peak_log_resident s.epoch s.reconfigs s.fenced_drops s.leases_held

(* Everything a world's schedule decides, as one string. *)
let state c replies =
  let eng = Cluster.engine c in
  let b = Buffer.create 4096 in
  Printf.bprintf b "now=%d\n" (Engine.now eng);
  List.iter
    (fun (node, (inst : Instance.t)) ->
      Printf.bprintf b "%s dmt=%d %s\n%s\n" node
        (match inst.dmt with Some d -> Dmt.clock d | None -> -1)
        (stats_line (Paxos.stats inst.paxos))
        (Output_log.render ~strip_times:false (Instance.output inst)))
    (Cluster.instances c);
  Array.iteri
    (fun i r -> Printf.bprintf b "reply %d %s\n" i (Option.value r ~default:"-"))
    replies;
  Buffer.contents b

let boot ?trace ~seed ~cfg ~server () =
  let c = Cluster.create ~seed ~cfg ?trace ~server () in
  Cluster.start ~checkpoints:false c;
  let eng = Cluster.engine c in
  while Cluster.primary c = None && Engine.now eng < Time.sec 10 do
    Cluster.run ~until:(Engine.now eng + Time.ms 10) c
  done;
  c

(* [n] clients, one request each, arriving [gap] apart from 100 ms after
   the first primary; the world then runs for [tail]. *)
let drive c ~n ~gap ~tail issue =
  let eng = Cluster.engine c in
  let start = Engine.now eng + Time.ms 100 in
  let replies = Array.make n None in
  for i = 0 to n - 1 do
    Engine.at eng (start + (i * gap)) (fun () ->
        Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
            replies.(i) <- (try issue i with Crane_socket.Sock.Connection_closed -> None)))
  done;
  Cluster.run ~until:(start + (n * gap) + tail) c;
  Cluster.check_failures c;
  replies

let mysql ?trace () =
  let cfg = { Instance.default_config with service_port = 3306; paxos = paxos_cfg } in
  let c = boot ?trace ~seed:11 ~cfg ~server:(Crane_apps.Mysql.server ()) () in
  let target = Target.cluster c ~port:3306 in
  let rng = Rng.create 11 in
  let replies =
    drive c ~n:40 ~gap:(Time.us 700) ~tail:(Time.ms 100) (fun i ->
        Clients.sysbench ~rng ~ntables:16 ~rows:2000 target ~from:(Printf.sprintf "sb%d" i))
  in
  state c replies

let apache ?trace () =
  let cfg = { Instance.default_config with service_port = 80; paxos = paxos_cfg } in
  let server =
    Crane_apps.Apache.server ~cfg:{ Crane_apps.Apache.default_config with hints = true } ()
  in
  let c = boot ?trace ~seed:12 ~cfg ~server () in
  let target = Target.cluster c ~port:80 in
  let replies =
    drive c ~n:12 ~gap:(Time.ms 40) ~tail:(Time.ms 600) (fun i ->
        Clients.apachebench target ~from:(Printf.sprintf "ab%d" i))
  in
  state c replies

let ledger ?trace () =
  let cfg =
    { Instance.default_config with
      mode = Instance.Paxos_only; service_port = 80; paxos = paxos_cfg }
  in
  let c = boot ?trace ~seed:13 ~cfg ~server:Ledger.server () in
  let eng = Cluster.engine c in
  let target = Target.cluster c ~port:80 in
  let lc = Ledger.client () in
  let n = 60 and gap = Time.ms 2 in
  (* Kill the primary a third of the way through the arrivals. *)
  Engine.at eng (Engine.now eng + Time.ms 100 + (n / 3 * gap)) (fun () ->
      Option.iter (Cluster.kill c) (Cluster.primary_node c));
  let replies =
    drive c ~n ~gap ~tail:(Time.sec 2) (fun i ->
        Ledger.request lc target ~from:(Printf.sprintf "lg%d" i))
  in
  state c replies

let digest s = Digest.to_hex (Digest.string s)

let check_world (world : ?trace:Trace.t -> unit -> string) ~state_digest ~trace_digest () =
  let untraced = world () in
  let tr = Trace.create () in
  let traced = world ~trace:tr () in
  Alcotest.(check string) "untraced state" state_digest (digest untraced);
  Alcotest.(check string) "tracing does not perturb the state" untraced traced;
  Alcotest.(check string) "traced JSONL export" trace_digest (digest (Trace.to_jsonl tr))

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "mysql full crane" `Quick
          (check_world mysql ~state_digest:"423ead6c8e5fa07503b69660aaad0c16"
             ~trace_digest:"68e9bc97412528749c7e6b6d7ea8c49c");
        Alcotest.test_case "apache hints" `Quick
          (check_world apache ~state_digest:"2bd053eeec5c58af1ebc595f5cbf6714"
             ~trace_digest:"0708f956bc99b86283a6d6ead0c5e3df");
        Alcotest.test_case "ledger paxos-only kill" `Quick
          (check_world ledger ~state_digest:"7319721dde0dcb2cdee2139aa247e9bd"
             ~trace_digest:"d5a643923b2d6e57ab5e49e570afda0e");
      ] );
  ]
