(** The benchmark's three workloads.  Each runs a ladder of arrival rates,
    every rate on a freshly booted world from the same seed, and checks
    the program's outputs as it goes.  Modelled (virtual-time) results
    are a pure function of the seed; host results are wall-clock timers
    and [Gc] counters around the benchmark's own calls into the program. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Sock = Crane_socket.Sock
module Fabric = Crane_net.Fabric
module Wal = Crane_storage.Wal
module Paxos = Crane_paxos.Paxos
module Manager = Crane_checkpoint.Manager
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Proxy = Crane_core.Proxy
module Standalone = Crane_core.Standalone
module Output_log = Crane_core.Output_log
module Target = Crane_workload.Target
module Clients = Crane_workload.Clients
module Mysql = Crane_apps.Mysql
module Apache = Crane_apps.Apache
module Ledger = Crane_chaos.Ledger
module Trace = Crane_trace.Trace

let wall () = Unix.gettimeofday ()

(* LAN-scale failure detection, as the CLI's cluster commands use. *)
let paxos_cfg =
  { Paxos.default_config with
    Paxos.heartbeat_period = Time.ms 200; election_timeout = Time.ms 600;
    election_jitter = Time.ms 100; round_retry = Time.ms 200 }

(* ------------------------------------------------------------------ *)
(* Workload parameters (mirrored in BENCHMARK.json).                   *)

type ladder = {
  rates : float list;  (** req/s; the first is the base rate *)
  requests : float -> int;  (** arrivals scheduled per world at a rate *)
  worlds : int;
      (** replicas: the whole ladder runs once per sub-seed of the seed,
          so one world's fault or stall is one draw, not the whole figure *)
  limit_ms : float;  (** p99 limit behind [slo_rps] *)
}

let sysbench_ladder =
  { rates = [ 1000.; 1500.; 2000. ]; requests = (fun r -> int_of_float (r *. 1.5));
    worlds = 1; limit_ms = 25.0 }

(* Six replicas of 250 requests per rate: a base world that wedges still
   leaves the 1000 samples p99 needs. *)
let http_ladder =
  { rates = [ 10.; 30.; 60. ]; requests = (fun _ -> 250); worlds = 6; limit_ms = 500.0 }

(* One failover is one draw of election jitter: eight worlds. *)
let ledger_ladder =
  { rates = [ 2000. ]; requests = (fun _ -> 12_000); worlds = 8; limit_ms = 2000.0 }

let sub_seed ~(ladder : ladder) ~seed k = (seed * ladder.worlds) + k

(* ------------------------------------------------------------------ *)
(* Worlds                                                              *)

type world = {
  eng : Engine.t;
  cluster : Cluster.t option;  (** [None] for the native standalone pass *)
  setup_host : float;  (** host s from create to the first elected primary *)
  start_at : int;  (** virtual instant the schedule starts *)
}

(* Boot a cluster and run it in slices until a primary is elected: the
   set-up cost later changes must not quietly grow. *)
let boot_cluster ?trace ~seed ~cfg ~server ~checkpoints () =
  let t0 = wall () in
  let cluster = Cluster.create ~seed ~cfg ?trace ~server () in
  Cluster.start ~checkpoints cluster;
  let eng = Cluster.engine cluster in
  while Cluster.primary cluster = None && Engine.now eng < Time.sec 30 do
    Cluster.run ~until:(Engine.now eng + Time.ms 10) cluster
  done;
  if Cluster.primary cluster = None then failwith "no primary elected within 30 s";
  let setup_host = wall () -. t0 in
  (* Let the first leases settle before the first arrival. *)
  { eng; cluster = Some cluster; setup_host; start_at = Engine.now eng + Time.ms 500 }

let the_cluster w = match w.cluster with Some c -> c | None -> invalid_arg "native world"

(* A CRANE cluster or, for the baseline, a native standalone server, with
   the target its clients connect to. *)
let boot ?trace ~native ~seed ~cfg ~server ~checkpoints () =
  let port = cfg.Instance.service_port in
  if native then
    let t0 = wall () in
    let sa = Standalone.boot ~seed ~mode:Standalone.Native ~server () in
    ( { eng = Standalone.engine sa; cluster = None; setup_host = wall () -. t0;
        start_at = Time.ms 100 },
      Target.standalone sa ~port )
  else
    let world = boot_cluster ?trace ~seed ~cfg ~server ~checkpoints () in
    (world, Target.cluster (the_cluster world) ~port)

(* ------------------------------------------------------------------ *)
(* Request clients                                                     *)

let guarded f = try f () with Sock.Connection_closed -> None

let sysbench_query target ~from ~table ~id =
  match Target.connect target ~from with
  | None -> None
  | Some conn ->
    let has s r = Crane_apps.Str_util.find_sub r s <> None in
    let result =
      match Clients.read_until conn ~stop:(has "ready") with
      | None -> None
      | Some _banner ->
        Sock.send conn (Printf.sprintf "SELECT c FROM sbtest%d WHERE id=%d\n" table id);
        Clients.read_until conn ~stop:(has "\n")
    in
    (try Sock.close conn with Sock.Connection_closed -> ());
    result

(* ------------------------------------------------------------------ *)
(* One rate on one world                                               *)

type rung = {
  rate : float;
  world : world;
  out : Openloop.outcome;
  run_host : float;  (** host s spent driving the schedule *)
  sim_host : float;  (** the part of [run_host] inside [Engine.run] *)
  words : float;  (** words allocated while driving the schedule *)
}

let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The arrival offsets of one rate: shared by the CRANE and native passes
   of a workload, so both see the same schedule. *)
let arrivals ~seed ~name ~(ladder : ladder) rate =
  Gen.poisson
    (Gen.stream ~seed (Printf.sprintf "%s/arrivals/%g" name rate))
    ~rate ~n:(ladder.requests rate)

let run_rung ?on_slice ~world ~name ~offsets ~rate ~issue () =
  let dues = Array.map (fun o -> world.start_at + o) offsets in
  let w0 = allocated () in
  let t0 = wall () in
  let out =
    Openloop.drive ?on_slice world.eng ~name ~dues
      ~issue:(fun i -> guarded (fun () -> issue i))
      ()
  in
  { rate; world; out; run_host = wall () -. t0; sim_host = out.sim_host;
    words = allocated () -. w0 }

let latencies (o : Openloop.outcome) =
  Pct.sorted
    (Array.fold_left
       (fun acc (r : Openloop.req) ->
         if r.done_at >= 0 then (r.done_at - r.due) :: acc else acc)
       [] o.reqs)

(* The longest virtual interval during which requests were outstanding
   and none settled (a request that never settled stays outstanding to
   the run's stop instant). *)
let longest_stall (o : Openloop.outcome) =
  let evs = ref [] in
  Array.iter
    (fun (r : Openloop.req) ->
      evs := (r.due, 1) :: !evs;
      evs := ((if r.settled_at >= 0 then r.settled_at else o.stop_at), -1) :: !evs)
    o.reqs;
  let evs = List.sort compare !evs in
  let open_ = ref 0 and start = ref 0 and best = ref 0 in
  List.iter
    (fun (t, d) ->
      if d > 0 then begin
        if !open_ = 0 then start := t;
        incr open_
      end
      else begin
        best := max !best (t - !start);
        start := t;
        decr open_
      end)
    evs;
  !best

(** What the metrics need of one world's outcome. *)
type tally = {
  lat : int array;  (** served latencies, sorted *)
  attempted : int;
  stalled : bool;
  growing : bool;
  span : int;  (** first to last due instant *)
  stall : int;  (** [longest_stall] *)
}

let tally (o : Openloop.outcome) =
  let n = Array.length o.reqs in
  { lat = latencies o; attempted = n; stalled = o.stalled; growing = o.backlog_growing;
    span = o.reqs.(n - 1).due - o.reqs.(0).due; stall = longest_stall o }

let misses t = t.attempted - Array.length t.lat

let pooled ts = Pct.sorted (List.concat_map (fun t -> Array.to_list t.lat) ts)

(* The SLO verdict of a rate over its worlds: p99 over every attempted
   request, a failed or unserved one counting as a miss (infinitely
   late), at most the limit, with no stall and no growing backlog. *)
let meets ~limit_ms ts =
  let n = List.fold_left (fun a t -> a + t.attempted) 0 ts in
  let lat = pooled ts in
  let all = Array.append lat (Array.make (n - Array.length lat) max_int) in
  List.for_all (fun t -> not (t.stalled || t.growing)) ts
  && float_of_int all.(Pct.rank n 0.99) <= limit_ms *. 1e6

(* Served requests per virtual second over the arrival span. *)
let goodput t = float_of_int (Array.length t.lat) /. (float_of_int t.span /. 1e9)

(* One replica's SLO capacity: its goodput at the highest ladder rate
   whose world meets the limit, 0 when none does. *)
let replica_slo ~limit_ms per_rate =
  List.fold_left (fun acc t -> if meets ~limit_ms [ t ] then goodput t else acc) 0.0 per_rate

(* ------------------------------------------------------------------ *)
(* Correctness checks                                                  *)

type check = { cname : string; ok : bool; detail : string }

let check cname ok detail = { cname; ok; detail }

let no_thread_failures ~label eng =
  match Engine.failures eng with
  | [] -> check ("no-thread-failures/" ^ label) true ""
  | (n, e) :: _ ->
    check ("no-thread-failures/" ^ label) false
      (Printf.sprintf "simulated thread %s died: %s" n (Printexc.to_string e))

(* Replica output logs of a full-mode world agree: equal once the world
   is quiescent, and each a prefix of another when a stall left backups
   behind. *)
let outputs_agree ~label ~quiescent cluster =
  let norm o = List.map (Output_log.norm_entry true) (Output_log.entries o) in
  let rec prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && prefix a' b'
    | _ :: _, [] -> false
  in
  let logs = List.map (fun (n, o) -> (n, o, norm o)) (Cluster.outputs cluster) in
  let bad =
    match logs with
    | [] -> Some "no live replicas"
    | (n0, o0, l0) :: rest ->
      List.find_map
        (fun (n, o, l) ->
          let ok =
            if quiescent then Output_log.equal o0 o
            else prefix l0 l || prefix l l0
          in
          if ok then None else Some (Printf.sprintf "%s and %s diverge" n0 n))
        rest
  in
  check ("outputs-agree/" ^ label) (bad = None) (Option.value bad ~default:"")

let lateness_zero ~label (o : Openloop.outcome) =
  let late = Array.fold_left (fun a (r : Openloop.req) -> max a r.lateness) 0 o.reqs in
  check ("generator-lateness/" ^ label) (late = 0)
    (Printf.sprintf "max lateness %d ns" late)

(* ------------------------------------------------------------------ *)
(* Per-layer counters                                                  *)

let ms ns = float_of_int ns /. 1e6

let stats_layers (r : rung) =
  let c = the_cluster r.world in
  let n = float_of_int (Array.length r.out.reqs) in
  let insts = Cluster.instances c in
  let pstats = List.map (fun (_, i) -> Paxos.stats i.Instance.paxos) insts in
  let sum f = List.fold_left (fun a s -> a + f s) 0 pstats in
  let wal_writes =
    List.fold_left (fun a node -> a + Wal.writes (Cluster.wal_for c node)) 0
      (List.sort_uniq compare
         (Cluster.members c @ List.map fst insts))
  in
  let primary = Cluster.primary c in
  let pxs =
    match primary with Some (_, i) -> Proxy.stats i.Instance.proxy | None -> Proxy.stats (snd (List.hd insts)).Instance.proxy
  in
  let committed =
    match primary with Some (_, i) -> Paxos.committed i.Instance.paxos | None -> 0
  in
  let proposed = pxs.Proxy.calls_proposed + pxs.Proxy.bubbles_proposed in
  let fabric = Cluster.fabric c in
  [ ("proxy.events_per_batch",
     if pxs.Proxy.batches_flushed = 0 then 0.0
     else float_of_int proposed /. float_of_int pxs.Proxy.batches_flushed);
    ("proxy.bubble_share",
     if proposed = 0 then 0.0
     else float_of_int pxs.Proxy.bubbles_proposed /. float_of_int proposed);
    ("wal.fsyncs_per_req", float_of_int wal_writes /. n);
    ("paxos.entries_per_req", float_of_int committed /. n);
    ("net.msgs_per_req", float_of_int (Fabric.delivered fabric) /. n);
    ("net.dropped", float_of_int (Fabric.dropped fabric));
    ("paxos.view_changes", float_of_int (sum (fun s -> s.Paxos.view_changes)));
    ("paxos.election_ms",
     match primary with
     | Some (_, i) -> (
       match (Paxos.stats i.Instance.paxos).Paxos.last_election_duration with
       | Some d -> ms d
       | None -> 0.0)
     | None -> 0.0);
    ("paxos.catchup_installed", float_of_int (sum (fun s -> s.Paxos.catchup_installed))) ]

(* A finished world's host costs: worlds are dropped as soon as they are
   summarized, so at most one is resident. *)
type summary = {
  s_attempted : int;
  s_missed : int;
  s_host : float;
  s_sim_host : float;
  s_words : float;
  s_setup : float;
}

let summarize (r : rung) (t : tally) =
  { s_attempted = t.attempted; s_missed = misses t; s_host = r.run_host;
    s_sim_host = r.sim_host; s_words = r.words; s_setup = r.world.setup_host }

(* Let a world that finished its schedule settle, so backups apply the
   tail the primary already answered before outputs are compared. *)
let settle (r : rung) =
  if not r.out.stalled then
    Engine.run ~until:(Engine.now r.world.eng + Time.ms 300) r.world.eng

let full_mode_checks ~label (r : rung) =
  settle r;
  let c = the_cluster r.world in
  [ no_thread_failures ~label r.world.eng;
    outputs_agree ~label ~quiescent:(not r.out.stalled) c;
    lateness_zero ~label r.out ]

(** Everything a pass reports. *)
type pass = {
  modelled : (string * float) list;  (** end-to-end virtual-time metrics *)
  samples : int;  (** served base-rate requests behind p50_ms / p99_ms *)
  base_lat : int array;
      (** the first base-rate world's latencies: what its traced rerun
          must reproduce *)
  attempted : int;
  failed : int;  (** client errors plus requests unserved at cut-off *)
  checks : check list;
  summaries : summary list;  (** CRANE worlds, the first base world first *)
  natives : summary list;  (** native baseline worlds *)
}

let host_s p = List.fold_left (fun a s -> a +. s.s_host) 0.0 (p.summaries @ p.natives)

(* Cluster set-ups only: the native baseline boots no cluster. *)
let setups p = List.map (fun s -> s.s_setup) p.summaries

let overhead ~crane_p50 ~native_p50 = ((crane_p50 /. native_p50) -. 1.0) *. 100.0

(* Called while no world is reachable: the dead world is collected before
   the next one boots, so worlds do not stack up in the peak heap. *)
let drop_world () = Gc.full_major ()

let base_latency_of lat =
  match (Pct.quantile 0.5 lat, Pct.quantile 0.99 lat) with
  | Some p50, Some p99 -> (Array.length lat, ms p50, ms p99)
  | _ ->
    failwith
      (Printf.sprintf "%d served base-rate samples cannot support p99" (Array.length lat))

let base_latency (o : Openloop.outcome) = base_latency_of (latencies o)

(** The pass's figures from its base-rate worlds ([base], CRANE then
    native, in replica order) and each replica's SLO capacity. *)
let assemble ~base ~natives ~slos ~unavail ~checks ~summaries ~native_summaries =
  let samples, p50, p99 = base_latency_of (pooled base) in
  let _, native_p50, _ = base_latency_of (pooled natives) in
  { modelled =
      [ ("p50_ms", p50); ("p99_ms", p99); ("slo_rps", Pct.median_f slos);
        ("overhead_pct", overhead ~crane_p50:p50 ~native_p50);
        ("unavail_ms", ms unavail) ];
    samples;
    base_lat = (List.hd base).lat;
    attempted = List.fold_left (fun a s -> a + s.s_attempted) 0 summaries;
    failed = List.fold_left (fun a s -> a + s.s_missed) 0 summaries;
    checks;
    summaries;
    natives = native_summaries }

(* ------------------------------------------------------------------ *)
(* sysbench-open                                                       *)

let sysbench_cfg =
  { Instance.default_config with service_port = 3306; paxos = paxos_cfg }

(* Point SELECTs: table and row drawn from the seed, per arrival. *)
let sysbench_contents ~seed ~rate n =
  let st = Gen.stream ~seed (Printf.sprintf "sysbench/contents/%g" rate) in
  Array.init n (fun _ ->
      let table = 1 + Random.State.int st 16 in
      (table, 1 + Random.State.int st 2000))

let sysbench_rung ?trace ?(native = false) ~seed rate =
  let world, target =
    boot ?trace ~native ~seed ~cfg:sysbench_cfg ~server:(Mysql.server ()) ~checkpoints:false ()
  in
  let offsets = arrivals ~seed ~name:"sysbench" ~ladder:sysbench_ladder rate in
  let q = sysbench_contents ~seed ~rate (Array.length offsets) in
  run_rung ~world ~name:"sysbench" ~offsets ~rate
    ~issue:(fun i ->
      let table, id = q.(i) in
      sysbench_query target ~from:(Printf.sprintf "sb%d" i) ~table ~id)
    ()

(* ------------------------------------------------------------------ *)
(* http-open                                                           *)

let http_cfg = { Instance.default_config with service_port = 80; paxos = paxos_cfg }

(* Apache with the paper's two PARROT soft-barrier hint lines. *)
let http_server () = Apache.server ~cfg:{ Apache.default_config with hints = true } ()

let http_rung ?trace ?(native = false) ~seed rate =
  let world, target =
    boot ?trace ~native ~seed ~cfg:http_cfg ~server:(http_server ()) ~checkpoints:false ()
  in
  let offsets = arrivals ~seed ~name:"http" ~ladder:http_ladder rate in
  run_rung ~world ~name:"http" ~offsets ~rate
    ~issue:(fun i -> Clients.apachebench target ~from:(Printf.sprintf "ab%d" i))
    ()

(* ------------------------------------------------------------------ *)
(* Ladder workloads                                                    *)

let median_int l = Pct.median_f (List.map float_of_int l)

(* A native reply differs from the CRANE reply to the same request, both
   served (a served reply is never empty). *)
let base_served_differs ~crane (q : Openloop.req) =
  q.done_at >= 0 && crane <> "" && crane <> q.reply

(* Run the ladder once per replica, every rate on a fresh CRANE world from
   the replica's sub-seed, then each replica's base-rate schedule on a
   native standalone server.  [same_replies] compares each base world's
   replies with its native twin's. *)
let ladder_pass ~name ~(ladder : ladder) ~rung ~same_replies ~seed =
  let base_rate = List.hd ladder.rates in
  let checks = ref [] and sums = ref [] and nsums = ref [] in
  let add cs = checks := !checks @ cs in
  let replicas =
    List.init ladder.worlds (fun k ->
        let seed = sub_seed ~ladder ~seed k in
        let per_rate =
          List.map
            (fun rate ->
              drop_world ();
              let r = rung ~native:false ~seed rate in
              let t = tally r.out in
              add (full_mode_checks ~label:(Printf.sprintf "%s@%g" name rate) r);
              sums := summarize r t :: !sums;
              (t, Array.map (fun (q : Openloop.req) -> q.reply) r.out.reqs))
            ladder.rates
        in
        let base, replies = List.hd per_rate in
        drop_world ();
        let nr = rung ~native:true ~seed base_rate in
        let label = name ^ "-native" in
        add [ no_thread_failures ~label nr.world.eng; lateness_zero ~label nr.out ];
        if same_replies then begin
          let differ = ref 0 in
          Array.iteri
            (fun i (q : Openloop.req) ->
              if base_served_differs ~crane:replies.(i) q then incr differ)
            nr.out.reqs;
          add
            [ check ("replies-match-native/" ^ name) (!differ = 0)
                (Printf.sprintf "%d replies differ" !differ) ]
        end;
        let nt = tally nr.out in
        nsums := summarize nr nt :: !nsums;
        (base, nt, replica_slo ~limit_ms:ladder.limit_ms (List.map fst per_rate)))
  in
  let base = List.map (fun (b, _, _) -> b) replicas in
  assemble ~base ~natives:(List.map (fun (_, n, _) -> n) replicas)
    ~slos:(List.map (fun (_, _, s) -> s) replicas)
    ~unavail:(int_of_float (median_int (List.map (fun t -> t.stall) base)))
    ~checks:!checks ~summaries:(List.rev !sums) ~native_summaries:(List.rev !nsums)

let sysbench_pass ~seed =
  ladder_pass ~name:"sysbench" ~ladder:sysbench_ladder ~same_replies:true ~seed
    ~rung:(fun ~native ~seed rate -> sysbench_rung ~native ~seed rate)

let http_pass ~seed =
  ladder_pass ~name:"http" ~ladder:http_ladder ~same_replies:false ~seed
    ~rung:(fun ~native ~seed rate -> http_rung ~native ~seed rate)

(* ------------------------------------------------------------------ *)
(* ledger-readmix-failover                                             *)

(* PAXOS only (no DMT, no bubbling), with a checkpoint every virtual
   second.  The killed primary is replaced by a fresh replica through a
   membership change, not brought back with [Cluster.restart]: in
   PAXOS-only mode a restart replays its logged [Connect]s before the
   server's listener exists, so [Vhost.deliver] drops them and the
   restarted ledger lacks every acknowledged write between the checkpoint
   and the kill (README, "Known defects"). *)
let ledger_cfg =
  { Instance.default_config with
    mode = Instance.Paxos_only; service_port = 80; paxos = paxos_cfg;
    checkpoint_period = Time.sec 1 }

type kind = Write | Lease_read | Backup_read

(* 95/5 reads/writes; every fourth read asks the primary's lease, the
   rest go bounded-stale to the backups. *)
let ledger_contents ~seed n =
  let st = Gen.stream ~seed "ledger/contents" in
  let reads = ref 0 in
  Array.init n (fun _ ->
      if Random.State.int st 100 < 5 then Write
      else begin
        incr reads;
        if !reads mod 4 = 0 then Lease_read else Backup_read
      end)

type read_obs = {
  mode : [ `Lease | `Backup of int | `Consensus ];
      (** [`Consensus]: the fast path refused and the read fell back *)
  ids : string list;
  issued : int;
}

(* The replica that replaces the killed primary. *)
let ledger_fresh = "replica4"

type failover = {
  mutable killed_at : int;  (** virtual instant the primary was killed; -1 never *)
  mutable replaced_at : int;  (** the replacement was requested; -1 never *)
  mutable rejoin : int;
      (** replacement request until the fresh replica applied the commit
          point of that instant; -1 never *)
}

(* Acknowledged ids a replica's ledger state lacks. *)
let lacking acked (inst : Instance.t) =
  let have = Hashtbl.create 1024 in
  List.iter
    (fun id -> Hashtbl.replace have id ())
    (Ledger.ids_of_state (inst.Instance.handle.Crane_core.Api.state_of ()));
  List.filter (fun id -> not (Hashtbl.mem have id)) acked

let ledger_offsets ~seed =
  arrivals ~seed ~name:"ledger" ~ladder:ledger_ladder (List.hd ledger_ladder.rates)

let ledger_rung ?trace ~seed () =
  let rate = List.hd ledger_ladder.rates in
  let world =
    boot_cluster ?trace ~seed ~cfg:ledger_cfg ~server:Ledger.server ~checkpoints:true ()
  in
  let c = the_cluster world and eng = world.eng in
  let target = Target.cluster c ~port:80 in
  let lease_t = Target.cluster c ~port:ledger_cfg.read_port in
  let backup_t = Target.cluster_backups c ~port:ledger_cfg.read_port in
  let lc = Ledger.client () in
  let offsets = ledger_offsets ~seed in
  let n = Array.length offsets in
  let kinds = ledger_contents ~seed n in
  let obs = Array.make n None in
  let fo = { killed_at = -1; replaced_at = -1; rejoin = -1 } in
  let victim = ref None and goal = ref 0 in
  Engine.at eng (world.start_at + offsets.(n / 3)) (fun () ->
      match Cluster.primary_node c with
      | Some node ->
        Cluster.kill c node;
        victim := Some node;
        fo.killed_at <- Engine.now eng
      | None -> ());
  Engine.at eng (world.start_at + offsets.(2 * n / 3)) (fun () ->
      match !victim with
      | Some node ->
        (match Cluster.primary c with
        | Some (_, p) -> goal := Paxos.committed p.Instance.paxos
        | None -> ());
        Cluster.replace_replica c ~dead:node ~fresh:ledger_fresh;
        fo.replaced_at <- Engine.now eng
      | None -> ());
  let probe () =
    match !victim with
    | Some _ when fo.replaced_at >= 0 && fo.rejoin < 0 -> (
      match Cluster.instance c ledger_fresh with
      | Some inst when Paxos.applied inst.Instance.paxos >= !goal ->
        fo.rejoin <- Engine.now eng - fo.replaced_at
      | Some _ | None -> ())
    | Some _ | None -> ()
  in
  let issue i =
    let from = Printf.sprintf "lg%d" i in
    match kinds.(i) with
    | Write -> Ledger.request lc target ~from
    | (Lease_read | Backup_read) as k ->
      let issued = Engine.now eng in
      let value, mode =
        match Ledger.fast_get (if k = Lease_read then lease_t else backup_t) ~from with
        | Some (Proxy.Served r) ->
          (Some r.Proxy.value, (r.Proxy.mode :> [ `Lease | `Backup of int | `Consensus ]))
        | Some Proxy.Rejected | Some Proxy.Write_required | None ->
          (Ledger.consensus_get target ~from, `Consensus)
      in
      Option.iter
        (fun v -> obs.(i) <- Some { mode; ids = Ledger.ids_of_reply v; issued })
        value;
      value
  in
  let r = run_rung ~on_slice:probe ~world ~name:"ledger" ~offsets ~rate ~issue () in
  (* The fresh replica catches up at simulated speed, so its server
     state trails its applied index.  Poll at fixed virtual steps
     (bounded, deterministic) until every live ledger holds every acked
     write; the audit reports whatever is still missing at the deadline. *)
  let converged () =
    let acked = Ledger.acked_ids lc in
    List.for_all (fun (_, inst) -> lacking acked inst = []) (Cluster.instances c)
  in
  let deadline = Engine.now eng + Time.sec 30 in
  Engine.run ~until:(Engine.now eng + Time.ms 200) eng;
  while (not (converged ())) && Engine.now eng < deadline do
    Engine.run ~until:(Engine.now eng + Time.ms 100) eng;
    probe ()
  done;
  (r, kinds, obs, lc, fo)

(* The ids acknowledged to a write request, from its [OK <id>] reply. *)
let acked_id reply =
  match String.split_on_char ' ' (String.trim reply) with
  | [ "OK"; id ] -> Some id
  | _ -> None

let ledger_checks (r : rung) kinds obs lc (fo : failover) =
  let c = the_cluster r.world in
  let acked = Ledger.acked_ids lc in
  let live = Cluster.instances c in
  let lost =
    List.filter_map
      (fun (node, inst) ->
        match lacking acked inst with
        | [] -> None
        | missing ->
          Some
            (Printf.sprintf "%s lacks %d of %d acked ids (first %s)" node
               (List.length missing) (List.length acked) (List.hd missing)))
      live
  in
  (* Reads.  PAXOS-only replicas run concurrent PUTs on unscheduled
     threads, so each replica may append them in its own order (the
     nondeterminism DMT removes): the audit compares sets, not order.
     Every id a read returns is on some live replica; lease and consensus
     reads hold every write acked before they were issued; backup reads
     miss at most their declared staleness in such writes. *)
  let stored = Hashtbl.create 4096 in
  List.iter
    (fun (_, inst) ->
      List.iter
        (fun id -> Hashtbl.replace stored id ())
        (Ledger.ids_of_state (inst.Instance.handle.Crane_core.Api.state_of ())))
    live;
  let writes =
    Array.to_list r.out.reqs
    |> List.mapi (fun i (q : Openloop.req) -> (i, q))
    |> List.filter_map (fun (i, (q : Openloop.req)) ->
           if kinds.(i) = Write && q.done_at >= 0 then
             Option.map (fun id -> (q.done_at, id)) (acked_id q.reply)
           else None)
  in
  (* [seen id = i]: read [i] returned [id]. *)
  let seen = Hashtbl.create 4096 in
  let bad_reads = ref [] in
  Array.iteri
    (fun i o ->
      match o with
      | None -> ()
      | Some o ->
        List.iter (fun id -> Hashtbl.replace seen id i) o.ids;
        let unknown = List.length (List.filter (fun id -> not (Hashtbl.mem stored id)) o.ids) in
        let missing =
          List.fold_left
            (fun a (ack, id) ->
              if ack < o.issued && Hashtbl.find_opt seen id <> Some i then a + 1 else a)
            0 writes
        in
        let allowed = match o.mode with `Backup s -> s | `Lease | `Consensus -> 0 in
        if unknown > 0 || missing > allowed then
          bad_reads :=
            Printf.sprintf "read %d (%s): unknown=%d missing=%d allowed=%d" i
              (match o.mode with `Lease -> "lease" | `Backup _ -> "backup" | `Consensus -> "consensus")
              unknown missing allowed
            :: !bad_reads)
    obs;
  [ no_thread_failures ~label:"ledger" r.world.eng;
    lateness_zero ~label:"ledger" r.out;
    check "failover-happened" (fo.killed_at >= 0 && fo.replaced_at >= 0)
      "primary kill and replacement did not both run";
    (* Without a primary the membership change cannot commit, so the
       fresh replica only boots in a world that re-elected. *)
    check "replacement-rejoined"
      (fo.rejoin >= 0 || Cluster.instance c ledger_fresh = None)
      (ledger_fresh ^ " booted but never applied the commit point of its replacement");
    check "acked-writes-on-every-live-replica" (lost = []) (String.concat "; " lost);
    check "fast-reads-within-declared-mode" (!bad_reads = [])
      (String.concat "; " (List.filteri (fun i _ -> i < 3) (List.rev !bad_reads))) ]

let ledger_native ~seed =
  let world, target =
    boot ~native:true ~seed ~cfg:ledger_cfg ~server:Ledger.server ~checkpoints:false ()
  in
  let offsets = ledger_offsets ~seed in
  let kinds = ledger_contents ~seed (Array.length offsets) in
  let lc = Ledger.client () in
  run_rung ~world ~name:"ledger-native" ~offsets ~rate:(List.hd ledger_ladder.rates)
    ~issue:(fun i ->
      let from = Printf.sprintf "lg%d" i in
      match kinds.(i) with
      | Write -> Ledger.request lc target ~from
      | Lease_read | Backup_read -> Ledger.consensus_get target ~from)
    ()

(* The ledger world with its audit, per-layer counters and the
   kill-to-first-acknowledged-write interval. *)
let ledger_world ?trace ~seed () =
  let r, kinds, obs, lc, fo = ledger_rung ?trace ~seed () in
  let reads = Array.fold_left (fun a k -> if k = Write then a else a + 1) 0 kinds in
  let share m =
    float_of_int
      (Array.fold_left
         (fun a o -> match o with Some o when m o.mode -> a + 1 | Some _ | None -> a)
         0 obs)
    /. float_of_int reads
  in
  let first_write_ack =
    Array.to_list r.out.reqs
    |> List.filteri (fun i _ -> kinds.(i) = Write)
    |> List.fold_left
         (fun a (q : Openloop.req) ->
           if q.done_at >= fo.killed_at && q.done_at >= 0 then min a q.done_at else a)
         max_int
  in
  let ckpt = Cluster.latest_checkpoint (the_cluster r.world) in
  let layers =
    stats_layers r
    @ [ ("reads.lease_share", share (fun m -> m = `Lease));
        ("reads.backup_share", share (function `Backup _ -> true | _ -> false));
        ("reads.reject_share", share (fun m -> m = `Consensus));
        ("ckpt.c_process_ms",
         match ckpt with Some k -> ms k.Manager.timings.Manager.c_process | None -> 0.0);
        ("ckpt.c_fs_ms",
         match ckpt with Some k -> ms k.Manager.timings.Manager.c_fs | None -> 0.0);
        ("recovery.rejoin_ms", if fo.rejoin >= 0 then ms fo.rejoin else 0.0) ]
  in
  (* Two survivors that start their elections within one link latency of
     each other reject each other's view change and retry in lockstep
     forever (README, "Known defects").  That world serves no write after
     the kill: a liveness failure, counted in [failed] like the HTTP
     wedge, not a wrong output. *)
  let reelected = Cluster.primary (the_cluster r.world) <> None in
  if not reelected then
    Printf.eprintf "ledger world %d: no primary elected after the kill (election livelock)\n%!"
      seed;
  let checks =
    ledger_checks r kinds obs lc fo
    @ [ check "checkpoint-taken" (ckpt <> None) "no checkpoint was taken";
        check "write-acked-after-kill" (first_write_ack < max_int || not reelected)
          "a primary was re-elected but no write was acknowledged after the kill" ]
  in
  (r, layers, checks, first_write_ack - fo.killed_at)

(* A pass runs the ledger's worlds, pools their latencies and takes the
   median of their failover intervals. *)
let ledger_pass ~seed =
  let checks = ref [] and sums = ref [] and nsums = ref [] in
  let worlds =
    List.init ledger_ladder.worlds (fun k ->
        let seed = sub_seed ~ladder:ledger_ladder ~seed k in
        drop_world ();
        let r, _, world_checks, unavail = ledger_world ~seed () in
        let t = tally r.out in
        sums := summarize r t :: !sums;
        drop_world ();
        let nr = ledger_native ~seed in
        let nt = tally nr.out in
        nsums := summarize nr nt :: !nsums;
        checks :=
          !checks @ world_checks
          @ [ no_thread_failures ~label:"ledger-native" nr.world.eng;
              lateness_zero ~label:"ledger-native" nr.out ];
        (t, nt, unavail))
  in
  let base = List.map (fun (t, _, _) -> t) worlds in
  assemble ~base ~natives:(List.map (fun (_, n, _) -> n) worlds)
    ~slos:(List.map (fun t -> replica_slo ~limit_ms:ledger_ladder.limit_ms [ t ]) base)
    ~unavail:(int_of_float (median_int (List.map (fun (_, _, u) -> u) worlds)))
    ~checks:!checks ~summaries:(List.rev !sums) ~native_summaries:(List.rev !nsums)

(* ------------------------------------------------------------------ *)
(* The workload table                                                  *)

type workload = {
  pass : seed:int -> pass;
  base : ?trace:Trace.t -> seed:int -> unit -> rung * (string * float) list * check list;
      (** the base-rate CRANE world alone: what the traced run records *)
}

(* The first base-rate world of a pass, alone. *)
let full_base ~(ladder : ladder) rung ?trace ~seed () =
  drop_world ();
  let rate = List.hd ladder.rates in
  let r = rung ?trace ~seed:(sub_seed ~ladder ~seed 0) rate in
  (r, stats_layers r, full_mode_checks ~label:(Printf.sprintf "base@%g" rate) r)

let workloads =
  [ ("sysbench-open",
     { pass = sysbench_pass;
       base =
         full_base ~ladder:sysbench_ladder (fun ?trace ~seed rate ->
             sysbench_rung ?trace ~seed rate) });
    ("ledger-readmix-failover",
     { pass = ledger_pass;
       base =
         (fun ?trace ~seed () ->
           drop_world ();
           let r, layers, checks, _ =
             ledger_world ?trace ~seed:(sub_seed ~ladder:ledger_ladder ~seed 0) ()
           in
           (r, layers, checks)) });
    ("http-open",
     { pass = http_pass;
       base =
         full_base ~ladder:http_ladder (fun ?trace ~seed rate -> http_rung ?trace ~seed rate)
     }) ]
