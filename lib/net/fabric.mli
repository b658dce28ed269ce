(** Simulated LAN fabric.

    A datagram layer between named nodes: per-link latency with seeded
    jitter, optional loss, partitions, and node up/down — the substrate for
    both the PAXOS protocol traffic and the TCP-like socket layer.

    Delivery per (src, dst) pair is FIFO (later sends never overtake
    earlier ones on the same link, as on a TCP-backed LAN), while jitter
    still makes {e cross-link} arrival order nondeterministic — the paper's
    source S1/S3 of replica divergence.

    State: one record per node name (up/down state and bound handlers),
    created when the name is first used, and one per directed link
    (its jitter/loss stream and FIFO clock).  Both live as long as the
    fabric: a node name is never forgotten, so a workload that invents
    a fresh client name per connection adds one node and two links per
    connection. *)

type node = string

type endpoint = { node : node; port : int }

val endpoint_pp : Format.formatter -> endpoint -> unit

type message = ..
(** Extensible payload type: each protocol layer adds its constructors. *)

type t

val create : Crane_sim.Engine.t -> Crane_sim.Rng.t -> t
(** Default link model: 40 us base latency, 20 us jitter, no loss —
    a 1 Gbps LAN as in the paper's testbed. *)

val engine : t -> Crane_sim.Engine.t

val set_latency : t -> base:Crane_sim.Time.t -> jitter:Crane_sim.Time.t -> unit
val set_loss : t -> float -> unit

val set_byte_cost : t -> Crane_sim.Time.t -> unit
(** Per-byte serialization + wire cost charged to bulk transfers that pass
    [?bytes] to {!send}.  Default 8 ns/byte (1 Gbps). *)

val node_up : t -> node -> unit
(** Bring a node (back) online.  {!bind} brings its node up; {!send}
    brings up a source never seen before, but not one taken down with
    {!node_down}. *)

val node_down : t -> node -> unit
(** Take a node offline: its in-flight and future messages are dropped,
    in both directions. *)

val is_up : t -> node -> bool
(** [false] for a node never seen. *)

val partition : t -> node list -> node list -> unit
(** Block traffic between the two sides (both directions).  Cumulative
    with previous partitions. *)

val partition_oneway : t -> from:node list -> to_:node list -> unit
(** Block traffic from [from] to [to_] only: the asymmetric failure mode
    (e.g. a primary whose outbound NIC queue wedges while inbound traffic
    still arrives).  Cumulative with previous partitions. *)

val heal : t -> unit
(** Remove all partitions. *)

val partitions : t -> int
(** Number of active partition rules. *)

val bind : t -> endpoint -> (src:endpoint -> message -> unit) -> unit
(** Install the handler for a (node, port).  Replaces any previous one. *)

val unbind : t -> endpoint -> unit

val send : ?bytes:int -> t -> src:endpoint -> dst:endpoint -> message -> unit
(** Fire-and-forget datagram.  Silently dropped if either node is down at
    delivery time, the pair is partitioned, the loss model fires, or no
    handler is bound.  [bytes] adds the bulk-transfer cost
    [bytes * byte_cost] to the link delay (used for snapshot streaming;
    ordinary protocol messages leave it 0 so fixed-seed timings are
    unchanged). *)

type route
(** A resolved [src -> dst] path, for a sender that uses one path many
    times (a socket connection): sending on it looks no name up. *)

val route : t -> src:endpoint -> dst:endpoint -> route

val send_route : ?bytes:int -> route -> message -> unit
(** [send_route (route t ~src ~dst) msg] is [send t ~src ~dst msg]. *)

val reject : t -> src:endpoint -> dst:endpoint -> reason:string -> unit
(** Record an application-level rejection of an already-delivered message
    (e.g. consensus fencing a stale config epoch): counts and traces like
    a fabric drop, with [reason] on the receiver's timeline. *)

val delivered : t -> int
(** Total messages delivered so far (for tests and consensus-cost stats). *)

val dropped : t -> int
