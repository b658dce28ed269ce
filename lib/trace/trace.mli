(** Deterministic flight recorder for the simulated cluster (virtual-time
    tracing).

    Events carry virtual-nanosecond timestamps, the engine thread id and
    a replica attribution; the engine's determinism makes the exported
    trace byte-identical across runs with the same seed.  Disabled sinks
    cost one branch per instrumentation site. *)

type arg = Int of int | Str of string

type phase =
  | Instant
  | Begin
  | End
  | Async_begin of int
  | Async_end of int
  | Counter of int

type ev = {
  ts : int;  (** virtual nanoseconds *)
  tid : int;
  group : int;  (** engine thread group, -1 if none *)
  node : string;  (** replica name, "" when only the group is known *)
  cat : string;
  name : string;
  ph : phase;
  args : (string * arg) list;
}

type t

val create : ?retain:bool -> ?limit:int -> unit -> t
(** A fresh, enabled recorder.  [retain] (default true) keeps events in
    memory for export; pass [false] for streaming-only aggregation via
    {!add_sink}.  [limit] caps retained events (overflow is counted in
    {!dropped}, never raised). *)

val null : t
(** The shared permanently-disabled sink: the default recorder of every
    engine.  {!set_enabled} is a no-op on it. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val register_group : t -> group:int -> node:string -> unit
(** Attribute an engine thread group to a replica, so engine-level events
    (which only know their group) export under that replica's process. *)

val add_sink : t -> (ev -> unit) -> unit
(** Attach a streaming consumer called on every emitted event (e.g.
    {!Metrics.attach}).
    @raise Invalid_argument on {!null}, which every untraced engine
    shares and which never emits: attach sinks to a recorder from
    {!create}. *)

val emit : t -> ev -> unit

val instant :
  t -> ts:int -> tid:int -> ?group:int -> ?node:string -> cat:string ->
  name:string -> (string * arg) list -> unit

val span_begin :
  t -> ts:int -> tid:int -> ?group:int -> ?node:string -> cat:string ->
  name:string -> (string * arg) list -> unit
(** Open a duration span; matched with {!span_end} of the same
    (node, tid, cat, name). *)

val span_end :
  t -> ts:int -> tid:int -> ?group:int -> ?node:string -> cat:string ->
  name:string -> (string * arg) list -> unit

val async_begin :
  t -> ts:int -> tid:int -> id:int -> ?group:int -> ?node:string ->
  cat:string -> name:string -> (string * arg) list -> unit
(** Open a cross-thread span matched by (cat, name, id) — e.g. a PAXOS
    decision from proposal to commit. *)

val async_end :
  t -> ts:int -> tid:int -> id:int -> ?group:int -> ?node:string ->
  cat:string -> name:string -> (string * arg) list -> unit

val counter :
  t -> ts:int -> tid:int -> ?group:int -> ?node:string -> name:string ->
  int -> unit
(** Record a sampled gauge value (chrome "C" phase). *)

val member :
  t -> ts:int -> tid:int -> ?group:int -> ?node:string -> name:string ->
  (string * arg) list -> unit
(** Membership lifecycle instant ([join] / [leave] / [fence] /
    [reconfig_propose]) under the "member" category: one configuration
    history track per replica. *)

val events : t -> ev list
(** Retained events, oldest first. *)

val find_int : ev -> string -> int option
(** [find_int ev key] is the [Int] argument named [key], if any. *)

val find_str : ev -> string -> string option
(** [find_str ev key] is the [Str] argument named [key], if any. *)

val length : t -> int
val dropped : t -> int

val resolve_node : t -> ev -> string
(** The replica name of an event: explicit [node], else the registered
    name of its group, else "". *)

val to_chrome : t -> string
(** Chrome [trace_event] JSON (chrome://tracing, Perfetto), timestamps in
    virtual microseconds.  Deterministic: same events, same bytes. *)

val to_jsonl : t -> string
(** One JSON object per event per line, timestamps in virtual
    nanoseconds.  Deterministic. *)
