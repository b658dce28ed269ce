(** The benchmark's seeded open-loop generator.  Arrival instants and
    request contents are a pure function of [(seed, stream)]: the program
    under test only ever sees the generated requests. *)

(** An independent generator for one named stream of one seed, so adding
    draws to one stream (say, request contents) never shifts another
    (arrival instants). *)
let stream ~seed name = Random.State.make [| seed; Hashtbl.hash name |]

(** [n] Poisson arrivals at [rate] requests per virtual second, as
    ascending virtual-ns offsets from the schedule start.  A fixed count
    (not a fixed duration) keeps every percentile's support known ahead
    of the run. *)
let poisson st ~rate ~n =
  let mean_gap = 1e9 /. rate in
  let t = ref 0.0 in
  Array.init n (fun _ ->
      (* 1 - u lies in (0, 1]: the log never sees 0. *)
      t := !t -. (mean_gap *. log (1.0 -. Random.State.float st 1.0));
      int_of_float !t)
