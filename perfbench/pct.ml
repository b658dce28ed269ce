(** Percentiles that are only reported when the sample supports them. *)

(** Nearest-rank index of quantile [q] in a sorted sample of [n]. *)
let rank n q = max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

(** Samples strictly beyond the nearest-rank [q]-quantile of [n]. *)
let beyond n q = n - 1 - rank n q

(** [quantile q a] on a sorted array; [None] unless at least [min_beyond]
    samples lie beyond it, so a tail percentile is never read off a
    handful of points. *)
let min_beyond = 10

let quantile q a =
  let n = Array.length a in
  if n = 0 || beyond n q < min_beyond then None else Some a.(rank n q)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(** Median of a float list (mean of the middle pair on even counts). *)
let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
