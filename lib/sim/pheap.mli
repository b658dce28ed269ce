(** Mutable binary min-heap keyed by [(time, sequence-number)].

    The engine's queue of events due after the current instant.  The
    sequence number breaks ties between events scheduled for the same
    virtual instant, making the run order fully deterministic.  Sifts
    move only int keys and slot indices, never values. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:Time.t -> seq:int -> 'a -> unit

val min_time : 'a t -> Time.t
(** The timestamp of the minimum element, ordered by time then seq;
    [max_int] when the heap is empty. *)

val pop_value : 'a t -> 'a
(** Removes the minimum element and returns its value.
    @raise Invalid_argument on an empty heap. *)
