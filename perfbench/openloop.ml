(** Open-loop driving of one simulated world, in bounded slices, with a
    stall guard.

    Each request is a client fiber spawned at its due instant, whatever
    the state of earlier requests, and its latency is timed from that
    instant.  The world advances in [slice]-long runs of the engine; the
    run ends when every request has an outcome, at the cut-off
    ([last due + drain]), or when the stall guard fires: requests are
    outstanding and none has completed for [stall_window] of virtual time,
    or during [hot_slices] slices that each exhausted the [slice_events]
    budget (a livelock that burns events without advancing virtual time
    much — the known full-mode HTTP wedge).  Both guards are
    functions of the event sequence alone, so a stalled run stops at the
    same instant on every replay. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine

type req = {
  due : int;  (** absolute virtual ns *)
  mutable lateness : int;  (** spawn instant - due *)
  mutable done_at : int;  (** completion instant; -1 unless served *)
  mutable settled_at : int;  (** served or failed instant; -1 before *)
  mutable reply : string;
}

(* The guard's settings.  A healthy world runs at most a few thousand
   events per 10 ms slice; the wedge runs ~400 000. *)
let slice = Time.ms 10
let slice_events = 100_000
let hot_slices = 3
let stall_window = Time.sec 2
let drain = Time.sec 2 (* grace after the last due instant *)

type outcome = {
  reqs : req array;
  stalled : bool;  (** the stall guard ended the run *)
  stop_at : int;  (** virtual instant the run stopped *)
  sim_host : float;  (** host seconds spent inside [Engine.run] *)
  backlog_growing : bool;
      (** mean outstanding requests over the last third of the arrival
          window exceed twice (plus two) those over the middle third *)
}

(** Drive [dues] (absolute, ascending) through [issue i], which runs in
    request [i]'s fiber and returns the reply or [None] on error.
    [on_slice] runs between slices (fault schedules, recovery probes). *)
let drive ?(on_slice = fun () -> ()) eng ~name ~dues ~issue () =
  let n = Array.length dues in
  let reqs =
    Array.map (fun due -> { due; lateness = 0; done_at = -1; settled_at = -1; reply = "" }) dues
  in
  let inflight = ref 0 and settled = ref 0 in
  let last_progress = ref (Engine.now eng) in
  let hot = ref 0 in
  let sim_host = ref 0.0 in
  Array.iteri
    (fun i r ->
      Engine.at eng r.due (fun () ->
          Engine.spawn eng ~name:(Printf.sprintf "%s-%d" name i) (fun () ->
              r.lateness <- Engine.now eng - r.due;
              (* An idle system starts the stall clock at the first
                 arrival, not at the last completion. *)
              if !inflight = 0 then last_progress := Engine.now eng;
              incr inflight;
              (match issue i with
              | Some reply ->
                r.reply <- reply;
                r.done_at <- Engine.now eng;
                last_progress := Engine.now eng;
                hot := 0
              | None -> ());
              r.settled_at <- Engine.now eng;
              decr inflight;
              incr settled)))
    reqs;
  let first_due = if n = 0 then Engine.now eng else reqs.(0).due in
  let last_due = if n = 0 then Engine.now eng else reqs.(n - 1).due in
  let cutoff = last_due + drain in
  let samples = ref [] in
  let rec loop () =
    let now = Engine.now eng in
    if !settled >= n || now >= cutoff then (false, now)
    else if
      !inflight > 0
      && (now - !last_progress >= stall_window || !hot >= hot_slices)
    then (true, now)
    else begin
      if now >= first_due && now <= last_due then samples := (now, !inflight) :: !samples;
      let t0 = Unix.gettimeofday () in
      (match Engine.run ~until:(now + slice) ~limit:slice_events eng with
      | () -> ()
      | exception Engine.Limit_exceeded -> incr hot);
      sim_host := !sim_host +. (Unix.gettimeofday () -. t0);
      on_slice ();
      loop ()
    end
  in
  let stalled, stop_at = loop () in
  let third = (last_due - first_due) / 3 in
  let mean_in lo hi =
    let s, c =
      List.fold_left
        (fun (s, c) (t, o) -> if t >= lo && t < hi then (s + o, c + 1) else (s, c))
        (0, 0) !samples
    in
    if c = 0 then 0.0 else float_of_int s /. float_of_int c
  in
  let mid = mean_in (first_due + third) (first_due + (2 * third)) in
  let last = mean_in (first_due + (2 * third)) (last_due + 1) in
  { reqs; stalled; stop_at; sim_host = !sim_host;
    backlog_growing = last > (2.0 *. mid) +. 2.0 }
