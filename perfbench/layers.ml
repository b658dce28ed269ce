(** Per-layer metrics of a traced world: the flight recorder folded by
    [Critical_path] into the seven commit stages plus the blocked-on
    table, next to the stats-record counters. *)

module Metrics = Crane_trace.Metrics
module Critical_path = Crane_trace.Critical_path

let us ns = float_of_int ns /. 1e3

(* A stage's p50 and p99 in microseconds, as [Critical_path] computes
   them; a bypassed stage (no samples) reads 0.  Stage percentiles are
   relayed whatever their support: [stage.min_samples] reports the
   smallest stage sample, so a p99 read off fewer than 1000 samples (10
   beyond it) shows as such. *)
let stage_pcts ?(p99 = true) (cp : Critical_path.report) ~stage ~name =
  let s =
    (List.find (fun (r : Critical_path.stage_row) -> r.stage = stage) cp.stages)
      .summary
  in
  (name ^ "_p50_us", us s.Metrics.p50)
  :: (if p99 then [ (name ^ "_p99_us", us s.Metrics.p99) ] else [])

let min_samples (cp : Critical_path.report) =
  List.fold_left
    (fun a (r : Critical_path.stage_row) ->
      if r.summary.Metrics.count > 0 then min a r.summary.Metrics.count else a)
    max_int cp.stages

let blocked_ms_per_req (cp : Critical_path.report) label =
  let ns =
    List.fold_left
      (fun a (b : Critical_path.blocked_row) -> if b.label = label then a + b.blocked_ns else a)
      0 cp.blocked_on
  in
  if cp.committed = 0 then 0.0 else float_of_int ns /. 1e6 /. float_of_int cp.committed

(** Stage and blocked-on metrics of one retained trace, and its coverage. *)
let of_trace tr =
  let cp = Critical_path.analyze tr in
  ( stage_pcts cp ~stage:"client_queue" ~name:"proxy.client_queue"
    @ stage_pcts cp ~stage:"batch_wait" ~name:"proxy.batch_wait"
    @ stage_pcts cp ~stage:"fsync" ~name:"wal.fsync"
    @ stage_pcts cp ~stage:"consensus" ~name:"paxos.consensus"
    @ stage_pcts cp ~stage:"sched_wait" ~name:"dmt.sched_wait"
    @ stage_pcts cp ~stage:"execute" ~name:"app.execute"
    @ stage_pcts ~p99:false cp ~stage:"reply" ~name:"socket.reply"
    @ [         ("gate.block_ms_per_req", blocked_ms_per_req cp "gate.block");
        ("dmt.turn_wait_ms_per_req", blocked_ms_per_req cp "dmt.turn_wait");
        ("trace.coverage", cp.coverage);
        ("stage.min_samples", float_of_int (min_samples cp)) ],
    cp )
