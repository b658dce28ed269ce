module Time = Crane_sim.Time
module Fabric = Crane_net.Fabric
module Engine = Crane_sim.Engine
module Trace = Crane_trace.Trace

exception Connection_refused of Fabric.node * int
exception Connection_closed

let transport_port = 0

module Itbl = Hashtbl.Make (Int)

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type conn = {
  cid : int;
  w : world;
  local : Fabric.node;
  remote : Fabric.node;
  dialer : bool; (* the connecting end, not the accepted one *)
  route : Fabric.route; (* local -> remote *)
  rx : Bytestream.t;
  mutable eof : bool; (* peer closed or crashed *)
  mutable closed : bool; (* this side closed *)
  rx_waiters : (unit -> bool) Queue.t;
}

(* Both ends of one connection id, as far as they are still tracked. *)
and ends = { mutable dialing : conn option; mutable accepted : conn option }

and listener = {
  lw : world;
  lhost : host;
  lport : int;
  backlog : conn Queue.t;
  accept_waiters : (unit -> bool) Queue.t;
  mutable lclosed : bool;
}

(* A node whose transport port is bound, with its open listeners. *)
and host = { hnode : Fabric.node; mutable listeners : listener list }

and world = {
  fabric : Fabric.t;
  eng : Engine.t;
  mutable next_cid : int;
  (* Live connections by id.  Both ends leave once closed and nothing
     can reach them any more (see [close]). *)
  conns : ends Itbl.t;
  pending_connects : (bool -> bool) Itbl.t;
  hosts : host Names.t;
}

type Fabric.message +=
  | Syn of { cid : int; dst_port : int }
  | Syn_ack of { cid : int }
  | Rst of { cid : int }
  | Data of { cid : int; payload : string }
  | Fin of { cid : int }

(* Wake the first still-live waiter in a queue. *)
let rec wake_one q =
  match Queue.take_opt q with
  | None -> ()
  | Some wake -> if not (wake ()) then wake_one q

let wake_all q =
  while not (Queue.is_empty q) do
    ignore ((Queue.pop q) ())
  done

let mark_eof c =
  if not c.eof then begin
    c.eof <- true;
    wake_all c.rx_waiters
  end

let ep node = { Fabric.node; port = transport_port }

(* Transport-delivery instants: connection ids are allocated once per
   connection and shared by both endpoints, so an rx event on the serving
   replica anchors the client-queueing stage of a request span, and one on
   the client's node anchors the reply stage. *)
let rx_event w ~node ~name ~cid ~bytes =
  let tr = Engine.trace w.eng in
  if Trace.enabled tr then
    Trace.instant tr ~ts:(Engine.now w.eng) ~tid:(Engine.self_tid w.eng)
      ~node ~cat:"net" ~name
      (("conn", Trace.Int cid)
      :: (if bytes > 0 then [ ("bytes", Trace.Int bytes) ] else []))

let new_end w ~cid ~dialer ~local ~remote =
  {
    cid;
    w;
    local;
    remote;
    dialer;
    route = Fabric.route w.fabric ~src:(ep local) ~dst:(ep remote);
    rx = Bytestream.create ();
    eof = false;
    closed = false;
    rx_waiters = Queue.create ();
  }

(* The end of connection [cid] that lives on [node].  A self-connection
   has both ends there, and the accepted one answers. *)
let find w node cid =
  match Itbl.find_opt w.conns cid with
  | None -> None
  | Some e -> (
    match e.accepted with
    | Some c when String.equal c.local node -> e.accepted
    | _ -> (
      match e.dialing with
      | Some c when String.equal c.local node -> e.dialing
      | _ -> None))

(* The other end of [c]'s connection: [None] once it left the table. *)
let peer_end c =
  match Itbl.find_opt c.w.conns c.cid with
  | None -> None
  | Some e -> if c.dialer then e.accepted else e.dialing

(* Stop tracking one end; the id leaves the table with its last end. *)
let detach c =
  match Itbl.find_opt c.w.conns c.cid with
  | None -> ()
  | Some e -> (
    let mine = function Some d -> d == c | None -> false in
    if mine e.dialing then e.dialing <- None;
    if mine e.accepted then e.accepted <- None;
    match e with
    | { dialing = None; accepted = None } -> Itbl.remove c.w.conns c.cid
    | _ -> ())

let find_listener h port = List.find_opt (fun l -> l.lport = port) h.listeners

let handle w h ~src msg =
  let node = h.hnode in
  match msg with
  | Syn { cid; dst_port } -> (
    match find_listener h dst_port with
    | Some l when not l.lclosed ->
      let c = new_end w ~cid ~dialer:false ~local:node ~remote:src.Fabric.node in
      (match Itbl.find_opt w.conns cid with
      | Some e -> e.accepted <- Some c
      | None -> Itbl.replace w.conns cid { dialing = None; accepted = Some c });
      rx_event w ~node ~name:"rx_syn" ~cid ~bytes:0;
      Queue.add c l.backlog;
      wake_one l.accept_waiters;
      Fabric.send_route c.route (Syn_ack { cid })
    | Some _ | None ->
      Fabric.send w.fabric ~src:(ep node) ~dst:src (Rst { cid }))
  | Syn_ack { cid } -> (
    match Itbl.find_opt w.pending_connects cid with
    | Some wake ->
      Itbl.remove w.pending_connects cid;
      ignore (wake true)
    | None -> ())
  | Rst { cid } -> (
    match Itbl.find_opt w.pending_connects cid with
    | Some wake ->
      Itbl.remove w.pending_connects cid;
      ignore (wake false)
    | None -> ( match find w node cid with Some c -> mark_eof c | None -> ()))
  | Data { cid; payload } -> (
    match find w node cid with
    | Some c when not c.closed ->
      rx_event w ~node ~name:"rx_data" ~cid ~bytes:(String.length payload);
      Bytestream.push c.rx payload;
      wake_one c.rx_waiters
    | Some _ | None -> ())
  | Fin { cid } -> (
    match find w node cid with
    | Some c ->
      rx_event w ~node ~name:"rx_fin" ~cid ~bytes:0;
      mark_eof c;
      (* A closed end that had not seen EOF sent its own Fin when it
         closed: once the peer has seen that one too, no Fin is left in
         flight either way and both ends can go. *)
      if c.closed then begin
        match peer_end c with
        | Some p when not p.eof -> ()
        | Some _ | None -> Itbl.remove w.conns cid
      end
    | None -> ())
  | _ -> ()

let ensure_bound w node =
  match Names.find_opt w.hosts node with
  | Some h -> h
  | None ->
    let h = { hnode = node; listeners = [] } in
    Names.add w.hosts node h;
    Fabric.bind w.fabric (ep node) (fun ~src msg -> handle w h ~src msg);
    h

let world fabric =
  {
    fabric;
    eng = Fabric.engine fabric;
    next_cid = 1;
    conns = Itbl.create 256;
    pending_connects = Itbl.create 16;
    hosts = Names.create 16;
  }

let live_connections w = Itbl.length w.conns

let listen w ~node ~port =
  let h = ensure_bound w node in
  if Option.is_some (find_listener h port) then
    invalid_arg (Printf.sprintf "Sock.listen: %s:%d already bound" node port);
  let l =
    {
      lw = w;
      lhost = h;
      lport = port;
      backlog = Queue.create ();
      accept_waiters = Queue.create ();
      lclosed = false;
    }
  in
  h.listeners <- l :: h.listeners;
  l

let close_listener l =
  if not l.lclosed then begin
    l.lclosed <- true;
    l.lhost.listeners <- List.filter (fun l' -> l' != l) l.lhost.listeners;
    wake_all l.accept_waiters
  end

let pending l = Queue.length l.backlog

let wait_acceptable ?timeout l =
  if not (Queue.is_empty l.backlog) then true
  else if l.lclosed then false
  else begin
    Engine.suspend l.lw.eng (fun wake ->
        Queue.add (fun () -> wake ()) l.accept_waiters;
        match timeout with
        | None -> ()
        | Some d -> Engine.after l.lw.eng d (fun () -> ignore (wake ())));
    not (Queue.is_empty l.backlog)
  end

let rec accept l =
  match Queue.take_opt l.backlog with
  | Some c -> c
  | None ->
    if l.lclosed then raise Connection_closed;
    Engine.suspend l.lw.eng (fun wake ->
        Queue.add (fun () -> wake ()) l.accept_waiters);
    accept l

let connect w ~from ~node ~port =
  ignore (ensure_bound w from);
  let cid = w.next_cid in
  w.next_cid <- cid + 1;
  let c = new_end w ~cid ~dialer:true ~local:from ~remote:node in
  Itbl.replace w.conns cid { dialing = Some c; accepted = None };
  Fabric.send_route c.route (Syn { cid; dst_port = port });
  let ok =
    Engine.suspend w.eng (fun wake ->
        Itbl.replace w.pending_connects cid (fun ok -> wake ok);
        (* Connect timeout: a dead or partitioned server refuses after 1s. *)
        Engine.after w.eng (Time.sec 1) (fun () ->
            if Itbl.mem w.pending_connects cid then begin
              Itbl.remove w.pending_connects cid;
              ignore (wake false)
            end))
  in
  if not ok then begin
    detach c;
    raise (Connection_refused (node, port))
  end;
  c

let send (c : conn) payload =
  if c.closed then raise Connection_closed;
  if (not c.eof) && String.length payload > 0 then
    Fabric.send_route c.route (Data { cid = c.cid; payload })

let recv ?timeout (c : conn) ~max =
  let rec loop deadline_armed =
    if not (Bytestream.is_empty c.rx) then Bytestream.take c.rx ~max
    else if c.eof || c.closed then ""
    else if deadline_armed then ""
    else begin
      let timed_out = ref false in
      Engine.suspend c.w.eng (fun wake ->
          Queue.add (fun () -> wake ()) c.rx_waiters;
          match timeout with
          | None -> ()
          | Some d ->
            Engine.after c.w.eng d (fun () ->
                if wake () then timed_out := true));
      loop !timed_out
    end
  in
  loop false

let recv_ready (c : conn) = (not (Bytestream.is_empty c.rx)) || c.eof

(* An end that has seen EOF sends no Fin, and a closed end ignores Data:
   once it closes after its peer did, nothing reaching either end has any
   effect, so the connection leaves the table. *)
let close (c : conn) =
  if not c.closed then begin
    c.closed <- true;
    if not c.eof then Fabric.send_route c.route (Fin { cid = c.cid });
    wake_all c.rx_waiters;
    if c.eof then
      match peer_end c with
      | Some p when not p.closed -> ()
      | Some _ | None -> Itbl.remove c.w.conns c.cid
  end

let id (c : conn) = c.cid
let local_node (c : conn) = c.local
let peer_node (c : conn) = c.remote
let is_open (c : conn) = not (c.closed || c.eof)

(* The tracked ends satisfying [p], in ascending connection-id order (the
   dialing end first within an id). *)
let ends_where w p =
  let acc =
    Itbl.fold
      (fun _ e acc ->
        let add o acc = match o with Some c when p c -> c :: acc | _ -> acc in
        add e.dialing (add e.accepted acc))
      w.conns []
  in
  List.stable_sort (fun a b -> compare a.cid b.cid) acc

(* A node (re)joining the world — a reboot or a reconfiguration booting a
   fresh replacement: make sure its transport is bound and clear any
   connection state a previous incarnation of the same name left behind,
   so the new instance starts from a clean table instead of inheriting
   half-open streams. *)
let node_booted w node =
  List.iter
    (fun c ->
      mark_eof c;
      detach c)
    (ends_where w (fun c -> String.equal c.local node));
  ignore (ensure_bound w node)

let node_crashed w node =
  (* Listeners on the node evaporate. *)
  (match Names.find_opt w.hosts node with
  | Some h ->
    List.iter close_listener
      (List.sort (fun a b -> compare a.lport b.lport) h.listeners)
  | None -> ());
  (* Peers of connections touching the node observe EOF. *)
  List.iter mark_eof
    (ends_where w (fun c ->
         (not (String.equal c.local node)) && String.equal c.remote node))
