module Trace = Crane_trace.Trace

type group = int

type thread = { tid : int; name : string; tgroup : group option }

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  (* Events due after the current instant, keyed by [(time, seq)]. *)
  events : (unit -> unit) Pheap.t;
  (* The same-instant lane: a ring-buffer FIFO of events due at [clock],
     in scheduling order ([lane_len] of them from [lane_head]).  A heap
     event due at [clock] was pushed before the clock reached it, so it
     runs before every lane event. *)
  mutable lane : (unit -> unit) array;
  mutable lane_head : int;
  mutable lane_len : int;
  mutable current : thread option;
  mutable next_group : int;
  mutable next_tid : int;
  dead_groups : (group, unit) Hashtbl.t;
  kill_hooks : (group, (unit -> unit) list ref) Hashtbl.t;
  mutable failed : (string * exn) list;
  mutable trace : Trace.t;
  (* Installed by the model checker to drive the fabric's controlled
     mode; [None] (the default) keeps every consumer on its RNG path. *)
  mutable sched : Sched.t option;
  (* The current [run]'s horizon and remaining event budget.  A sleep
     elides its events only inside both; outside any run, [until] is
     negative and the budget empty, so every sleep takes the queued
     path. *)
  mutable until : Time.t;
  mutable budget : int;
  mutable dispatched : int;
  mutable elided : int;
}

type 'a waker = 'a -> bool

exception Limit_exceeded

let create () =
  {
    clock = Time.zero;
    seq = 0;
    events = Pheap.create ();
    lane = Array.make 64 ignore;
    lane_head = 0;
    lane_len = 0;
    current = None;
    next_group = 0;
    next_tid = 0;
    dead_groups = Hashtbl.create 16;
    kill_hooks = Hashtbl.create 16;
    failed = [];
    trace = Trace.null;
    sched = None;
    until = -1;
    budget = 0;
    dispatched = 0;
    elided = 0;
  }

let now t = t.clock

let trace t = t.trace
let set_trace t tr = t.trace <- tr

let sched t = t.sched
let set_sched t s = t.sched <- Some s
let clear_sched t = t.sched <- None

let gid = function Some g -> g | None -> -1

let new_group t =
  let g = t.next_group in
  t.next_group <- g + 1;
  g

let group_alive t g = not (Hashtbl.mem t.dead_groups g)

let on_kill t g hook =
  match Hashtbl.find_opt t.kill_hooks g with
  | Some l -> l := hook :: !l
  | None -> Hashtbl.add t.kill_hooks g (ref [ hook ])

let kill_group t g =
  if group_alive t g then begin
    if Trace.enabled t.trace then
      Trace.instant t.trace ~ts:t.clock ~tid:(-1) ~group:g ~cat:"sim"
        ~name:"group_kill" [ ("group", Trace.Int g) ];
    Hashtbl.add t.dead_groups g ();
    match Hashtbl.find_opt t.kill_hooks g with
    | None -> ()
    | Some l ->
      let hooks = List.rev !l in
      l := [];
      List.iter (fun hook -> hook ()) hooks
  end

let alive t = function None -> true | Some g -> group_alive t g

let lane_push t fn =
  let cap = Array.length t.lane in
  if t.lane_len = cap then begin
    let lane = Array.make (2 * cap) ignore in
    for i = 0 to cap - 1 do
      lane.(i) <- t.lane.((t.lane_head + i) land (cap - 1))
    done;
    t.lane <- lane;
    t.lane_head <- 0
  end;
  t.lane.((t.lane_head + t.lane_len) land (Array.length t.lane - 1)) <- fn;
  t.lane_len <- t.lane_len + 1

let lane_pop t =
  let fn = t.lane.(t.lane_head) in
  t.lane.(t.lane_head) <- ignore;
  t.lane_head <- (t.lane_head + 1) land (Array.length t.lane - 1);
  t.lane_len <- t.lane_len - 1;
  fn

let heap_push t time fn =
  let seq = t.seq in
  t.seq <- seq + 1;
  Pheap.push t.events ~time ~seq fn

(* Stop the clock at a [run]'s horizon.  The lane is empty unless the
   horizon is already past (an [until] before now): then its events stay
   due at the old instant, so they move to the heap in order, behind
   every event queued there and ahead of everything scheduled later. *)
let stop_clock t time =
  while t.lane_len > 0 do
    heap_push t t.clock (lane_pop t)
  done;
  t.clock <- time

let schedule t ?group time fn =
  let fn = match group with
    | None -> fn
    | Some g -> fun () -> if group_alive t g then fn ()
  in
  if time <= t.clock then lane_push t fn else heap_push t time fn

let at t ?group time fn = schedule t ?group time fn
let after t ?group delay fn = schedule t ?group (t.clock + delay) fn

let timer t ?group delay fn =
  let cancelled = ref false in
  schedule t ?group (t.clock + delay) (fun () -> if not !cancelled then fn ());
  fun () -> cancelled := true

type _ Effect.t +=
  | Suspend : (('a -> bool) -> unit) -> 'a Effect.t
  | Sleep : Time.t -> unit Effect.t

(* The "sim/blocked" span around a suspension. *)
let blocked ~ends t th =
  if Trace.enabled t.trace then
    (if ends then Trace.span_end else Trace.span_begin)
      t.trace ~ts:t.clock ~tid:th.tid ~group:(gid th.tgroup) ~cat:"sim"
      ~name:"blocked" []

(* Continue a suspended thread on the current stack. *)
let resume t th k v =
  blocked ~ends:true t th;
  let saved = t.current in
  t.current <- Some th;
  Effect.Deep.continue k v;
  t.current <- saved

(* The queued wake-up: one event at the current instant, behind every
   event already queued there. *)
let schedule_resume t th k v =
  schedule t t.clock (fun () -> if alive t th.tgroup then resume t th k v)

(* Sleep elision.  When nothing is queued at or before [time], [time] is
   within the current run's horizon and its budget covers [n] more
   events, those [n] events would be the next ones the run dispatches:
   running their effect inline instead reorders nothing.  Each elided
   event still spends one unit of the budget, so [Limit_exceeded] trips
   after the same logical event as without elision. *)
let can_elide t time n =
  t.lane_len = 0 && Pheap.min_time t.events > time && time <= t.until
  && t.budget >= n

let elide t n =
  t.budget <- t.budget - n;
  t.elided <- t.elided + n

let handler t th =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = (fun e -> t.failed <- t.failed @ [ (th.name, e) ]);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend f ->
          Some
            (fun (k : (a, unit) continuation) ->
              blocked ~ends:false t th;
              let fired = ref false in
              let waker v =
                if !fired || not (alive t th.tgroup) then false
                else begin
                  fired := true;
                  schedule_resume t th k v;
                  true
                end
              in
              f waker)
        | Sleep wake ->
          Some
            (fun (k : (a, unit) continuation) ->
              blocked ~ends:false t th;
              (* The timer; its resume runs inline when nothing else is
                 due at the wake instant. *)
              schedule t wake (fun () ->
                  if alive t th.tgroup then
                    if can_elide t t.clock 1 then begin
                      elide t 1;
                      resume t th k ()
                    end
                    else schedule_resume t th k ()))
        | _ -> None);
  }

let spawn_with_tid t ?group ~name body =
  let group =
    match group with
    | Some _ as g -> g
    | None -> (match t.current with Some th -> th.tgroup | None -> None)
  in
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th = { tid; name; tgroup = group } in
  if Trace.enabled t.trace then begin
    let parent = match t.current with Some th -> th.tid | None -> -1 in
    Trace.instant t.trace ~ts:t.clock ~tid ~group:(gid group) ~cat:"sim"
      ~name:"thread_spawn"
      [ ("thread", Trace.Str name); ("parent", Trace.Int parent) ]
  end;
  schedule t t.clock (fun () ->
      if alive t th.tgroup then begin
        let saved = t.current in
        t.current <- Some th;
        Effect.Deep.match_with body () (handler t th);
        t.current <- saved
      end);
  tid

let spawn t ?group ~name body = ignore (spawn_with_tid t ?group ~name body)

let suspend (_ : t) f = Effect.perform (Suspend f)

let sleep t d =
  let wake = t.clock + max d 0 in
  match t.current with
  | Some th when can_elide t wake 2 && alive t th.tgroup ->
    (* Nothing can interleave: skip both the timer and the resume. *)
    blocked ~ends:false t th;
    t.clock <- wake;
    elide t 2;
    blocked ~ends:true t th
  | _ -> Effect.perform (Sleep wake)

let yield t = sleep t 0

let self_name t = match t.current with Some th -> th.name | None -> "-"
let self_tid t = match t.current with Some th -> th.tid | None -> -1
let self_group t = match t.current with Some th -> th.tgroup | None -> None

let run ?until ?(limit = 200_000_000) t =
  let stop = Option.value until ~default:max_int in
  let outer_until = t.until and outer_budget = t.budget in
  t.until <- stop;
  t.budget <- limit;
  let rec loop () =
    if t.lane_len > 0 || not (Pheap.is_empty t.events) then begin
      (* No heap event is due before the clock, so the heap goes first
         exactly when its minimum is due now. *)
      let from_heap = t.lane_len = 0 || Pheap.min_time t.events <= t.clock in
      let time = if from_heap then Pheap.min_time t.events else t.clock in
      if time > stop then stop_clock t stop
      else begin
        if t.budget <= 0 then raise Limit_exceeded;
        t.budget <- t.budget - 1;
        t.dispatched <- t.dispatched + 1;
        let fn = if from_heap then Pheap.pop_value t.events else lane_pop t in
        t.clock <- time;
        fn ();
        loop ()
      end
    end
  in
  Fun.protect loop ~finally:(fun () ->
      t.until <- outer_until;
      t.budget <- outer_budget)

let failures t = t.failed
let pending_events t = Pheap.length t.events + t.lane_len
let dispatched t = t.dispatched
let elided t = t.elided
