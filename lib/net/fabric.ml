module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Sched = Crane_sim.Sched
module Trace = Crane_trace.Trace

type node = string
type endpoint = { node : node; port : int }

let endpoint_pp fmt e = Format.fprintf fmt "%s:%d" e.node e.port

type message = ..

type handler = src:endpoint -> message -> unit

(* A node's up/down state.  [Unseen] reads as down, like [Down], but the
   first send from it brings it up; a [node_down]'d node stays down. *)
type status = Unseen | Up | Down

(* One record per node name, created on first sight and kept for the
   fabric's lifetime.  [ports] holds the bound handlers: a node binds a
   port or two, so a list beats a table. *)
type node_rec = {
  name : node;
  nid : int;
  mutable status : status;
  mutable ports : (int * handler) list;
}

(* One record per directed link, keyed by [link_key].  Jitter/loss draws
   come from the link's own stream, seeded from [link_seed] and the two
   names, not from one shared stream: with a shared stream, a change in
   the {e number} of messages on one link (e.g. batching collapsing N
   Accepts into one) would shift every later draw and perturb latencies
   on unrelated links, breaking fixed-seed comparisons across
   configurations.  The seed never depends on creation order. *)
type link = {
  lsrc : node_rec;
  ldst : node_rec;
  lrng : Rng.t;
  (* FIFO guarantee: never schedule a delivery on a link earlier than the
     previous one. *)
  mutable last_delivery : Time.t;
}

(* A send parked in the controlled fabric, waiting for the scheduler to
   deliver it.  Ids are assigned in send order, so the FIFO head of a
   link is its pending message with the smallest id. *)
type ctl_msg = {
  cm_id : int;
  cm_link : link;
  cm_src : endpoint;
  cm_dst : endpoint;
  cm_msg : message;
  cm_ready : Time.t;
}

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Itbl = Hashtbl.Make (Int)

type t = {
  eng : Engine.t;
  link_seed : int;
  nodes : node_rec Names.t;
  links : link Itbl.t;
  mutable base : Time.t;
  mutable jitter : Time.t;
  mutable byte_cost : Time.t;
  mutable loss : float;
  (* A partition blocks [src] -> [dst]; symmetric ones block the reverse
     direction too. *)
  mutable partitions : (node list * node list * bool) list;
  mutable delivered : int;
  mutable dropped : int;
  (* Controlled-mode state (Crane-MC); only touched when the engine
     carries a scheduler. *)
  mutable ctl_next_id : int;
  ctl_pending : ctl_msg Itbl.t;
}

(* A connection's resolved path: the names are looked up once, when the
   route is made, so sending on it hashes nothing. *)
type route = { rfab : t; rlink : link; rsrc : endpoint; rdst : endpoint }

let create eng rng =
  {
    eng;
    link_seed = Int64.to_int (Rng.next rng);
    nodes = Names.create 64;
    links = Itbl.create 64;
    base = Time.us 40;
    jitter = Time.us 20;
    byte_cost = 8 (* ns/byte: 1 Gbps wire *);
    loss = 0.0;
    partitions = [];
    delivered = 0;
    dropped = 0;
    ctl_next_id = 0;
    ctl_pending = Itbl.create 64;
  }

let engine t = t.eng

let set_latency t ~base ~jitter =
  t.base <- base;
  t.jitter <- jitter

let set_loss t loss = t.loss <- loss
let set_byte_cost t c = t.byte_cost <- c

let intern t n =
  match Names.find_opt t.nodes n with
  | Some r -> r
  | None ->
    let r =
      { name = n; nid = Names.length t.nodes; status = Unseen; ports = [] }
    in
    Names.add t.nodes n r;
    r

let node_up t n = (intern t n).status <- Up
let node_down t n = (intern t n).status <- Down
let up r = r.status = Up

let is_up t n =
  match Names.find_opt t.nodes n with Some r -> up r | None -> false

let partition t a b = t.partitions <- (a, b, true) :: t.partitions
let partition_oneway t ~from ~to_ = t.partitions <- (from, to_, false) :: t.partitions
let heal t = t.partitions <- []
let partitions t = List.length t.partitions

let partitioned t a b =
  let blocks (l, r, sym) =
    (List.mem a l && List.mem b r) || (sym && List.mem a r && List.mem b l)
  in
  List.exists blocks t.partitions

let without port ports = List.filter (fun (p, _) -> p <> port) ports

let bind t ep handler =
  let r = intern t ep.node in
  r.status <- Up;
  r.ports <- (ep.port, handler) :: without ep.port r.ports

let unbind t ep =
  match Names.find_opt t.nodes ep.node with
  | Some r -> r.ports <- without ep.port r.ports
  | None -> ()

let rec handler_of port = function
  | [] -> None
  | (p, h) :: rest -> if p = port then Some h else handler_of port rest

(* Node ids are dense from 0, so two of them pack into one int key. *)
let link_key s d = (s.nid lsl 31) lor d.nid

let link t s d =
  let key = link_key s d in
  match Itbl.find_opt t.links key with
  | Some l -> l
  | None ->
    let l =
      {
        lsrc = s;
        ldst = d;
        lrng = Rng.create (Hashtbl.hash (t.link_seed, s.name, d.name));
        last_delivery = min_int;
      }
    in
    Itbl.add t.links key l;
    l

let route t ~src ~dst =
  { rfab = t; rlink = link t (intern t src.node) (intern t dst.node); rsrc = src; rdst = dst }

let sample_delay t rng =
  let j = if t.jitter > 0 then Rng.int rng t.jitter else 0 in
  t.base + j

(* Message loss is a latency event, not just a counter: a dropped Accept
   or ack stalls its index until the round retry, so chaos-run critical
   paths want drops on the replica's timeline. *)
let note_drop t ~src ~dst ~reason =
  t.dropped <- t.dropped + 1;
  let tr = Engine.trace t.eng in
  if Trace.enabled tr then
    Trace.instant tr ~ts:(Engine.now t.eng) ~tid:(Engine.self_tid t.eng)
      ~node:dst.node ~cat:"net" ~name:"drop"
      [ ("src", Trace.Str src.node); ("reason", Trace.Str reason) ]

(* Application-level rejection of an already-delivered message — e.g.
   paxos fencing a stale config epoch.  Counts and traces like a fabric
   drop so chaos reports and timelines show why the message died. *)
let reject t ~src ~dst ~reason = note_drop t ~src ~dst ~reason

(* ------------------------------------------------------------------ *)
(* Controlled mode (Crane-MC).

   With a scheduler installed on the engine, sends do not sample the
   per-link RNG streams at all: every message parks in [ctl_pending]
   behind a fixed base latency, and at each delivery instant the
   scheduler picks which eligible message fires next, then whether it is
   delivered or dropped.  Per-link FIFO is preserved structurally — only
   the oldest pending message of each link is ever eligible — so the
   enumerator explores exactly the cross-link delivery orders a real
   asynchronous network admits.  Everything downstream of the choices is
   deterministic, which is what makes a recorded choice sequence a
   replayable counterexample. *)

(* Stable identity of a pending message, parseable by the enumerator:
   "<id>|<src>><dst>:<port>". *)
let ctl_key m =
  Printf.sprintf "%d|%s>%s:%d" m.cm_id m.cm_src.node m.cm_dst.node
    m.cm_dst.port

(* Eligible set: per-link FIFO heads whose ready time has arrived.  A
   delay-bucketed head parks its whole link behind it (FIFO), which is
   how the enumerator slides a message past a timer deadline. *)
let ctl_eligible t =
  let now = Engine.now t.eng in
  let heads = Itbl.create 16 in
  Itbl.iter
    (fun _ m ->
      let key = link_key m.cm_link.lsrc m.cm_link.ldst in
      match Itbl.find_opt heads key with
      | Some m' when m'.cm_id < m.cm_id -> ()
      | _ -> Itbl.replace heads key m)
    t.ctl_pending;
  let elig =
    Itbl.fold
      (fun _ m acc -> if m.cm_ready <= now then m :: acc else acc)
      heads []
  in
  List.sort (fun a b -> compare a.cm_id b.cm_id) elig

let ctl_pump t sched =
  let rec loop () =
    match ctl_eligible t with
    | [] -> ()
    | elig ->
      sched.Sched.pre_deliver ();
      let arr = Array.of_list elig in
      let keys = Array.map ctl_key arr in
      let m = arr.(Sched.choose sched ~label:"net.deliver" ~keys) in
      Itbl.remove t.ctl_pending m.cm_id;
      let src = m.cm_src and dst = m.cm_dst in
      let d = m.cm_link.ldst in
      if
        (not (up m.cm_link.lsrc && up d))
        || partitioned t src.node dst.node
      then note_drop t ~src ~dst ~reason:"partitioned"
      else begin
        let key = ctl_key m in
        let fate =
          Sched.choose sched ~label:"net.fate"
            ~keys:[| "deliver:" ^ key; "drop:" ^ key |]
        in
        if fate = 1 then note_drop t ~src ~dst ~reason:"mc_drop"
        else
          match handler_of dst.port d.ports with
          | Some handler ->
            t.delivered <- t.delivered + 1;
            sched.Sched.on_deliver ~id:m.cm_id ~src:src.node ~dst:dst.node;
            handler ~src m.cm_msg
          | None -> note_drop t ~src ~dst ~reason:"unbound"
      end;
      (* Handlers only ever park new messages at [now + base > now], so
         the eligible set shrinks monotonically and the loop terminates.
         Draining every same-instant delivery here matches the normal
         mode, where simultaneous arrivals run back to back before any
         continuation they wake. *)
      loop ()
  in
  loop ()

let ctl_send ~bytes t sched l ~src ~dst msg =
  if not (up l.lsrc) then note_drop t ~src ~dst ~reason:"src_down"
  else begin
    let id = t.ctl_next_id in
    t.ctl_next_id <- id + 1;
    sched.Sched.on_send ~id ~src:src.node ~dst:dst.node;
    let mult =
      let delays = sched.Sched.delays in
      if Array.length delays <= 1 then delays.(0)
      else
        let keys =
          Array.map
            (fun d ->
              Printf.sprintf "%d|%s>%s:%d|%dx" id src.node dst.node dst.port d)
            delays
        in
        delays.(Sched.choose sched ~label:"net.delay" ~keys)
    in
    let ready =
      Engine.now t.eng + (mult * sched.Sched.base) + (bytes * t.byte_cost)
    in
    Itbl.replace t.ctl_pending id
      {
        cm_id = id;
        cm_link = l;
        cm_src = src;
        cm_dst = dst;
        cm_msg = msg;
        cm_ready = ready;
      };
    Engine.at t.eng ready (fun () -> ctl_pump t sched)
  end

(* Up/down state and handlers are read from the live records when the
   message arrives, not when it is sent. *)
let send_link ~bytes t l ~src ~dst msg =
  let s = l.lsrc in
  if s.status = Unseen then s.status <- Up;
  match Engine.sched t.eng with
  | Some sched -> ctl_send ~bytes t sched l ~src ~dst msg
  | None ->
  if not (up s) || Rng.chance l.lrng t.loss then
    note_drop t ~src ~dst ~reason:(if up s then "loss" else "src_down")
  else begin
    let arrival =
      let earliest =
        Engine.now t.eng + sample_delay t l.lrng + (bytes * t.byte_cost)
      in
      if l.last_delivery > earliest then l.last_delivery else earliest
    in
    l.last_delivery <- arrival;
    Engine.at t.eng arrival (fun () ->
        let d = l.ldst in
        if up s && up d && not (partitioned t src.node dst.node) then
          match handler_of dst.port d.ports with
          | Some handler ->
            t.delivered <- t.delivered + 1;
            handler ~src msg
          | None -> note_drop t ~src ~dst ~reason:"unbound"
        else note_drop t ~src ~dst ~reason:"partitioned")
  end

let send ?(bytes = 0) t ~src ~dst msg =
  send_link ~bytes t (link t (intern t src.node) (intern t dst.node)) ~src ~dst msg

let send_route ?(bytes = 0) r msg =
  send_link ~bytes r.rfab r.rlink ~src:r.rsrc ~dst:r.rdst msg

let delivered t = t.delivered
let dropped t = t.dropped
