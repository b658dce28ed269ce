(** The one result schema of every [crane_cli bench] command: which bench
    ran, with which configuration (seed, quick, sizes), and the list of
    metrics it measured.  A metric may say which direction is better —
    those are the ones the drift check compares against a committed
    baseline — and may carry a gate bound, which [--check] enforces.
    Pass/fail conditions are metrics too: value 1 or 0, bound 1.

    [to_json] is the one writer.  [of_json] reads back exactly the
    subset of JSON the writer emits (objects, arrays, escape-free
    strings, numbers), so no JSON library is needed. *)

type better = Higher | Lower

type metric = {
  name : string;
  value : float;
  unit : string;
  better : better option;  (** [None]: informational, never drift-checked *)
  bound : float option;
      (** gate: [value >= bound] when [Higher], [value <= bound] when [Lower] *)
}

type t = { bench : string; config : (string * int) list; metrics : metric list }

(* [digits] rounds the value the way "%.<digits>f" prints it, so a result
   carries exactly the figure a reader sees in the JSON, and the gate and
   drift check judge that figure. *)
let make ?digits ?(unit = "count") ?better ?bound name v =
  let value =
    match digits with
    | None -> v
    | Some d -> float_of_string (Printf.sprintf "%.*f" d v)
  in
  { name; value; unit; better; bound }

let info ?digits ?unit name v = make ?digits ?unit name v
let higher ?digits ?unit ?bound name v = make ?digits ?unit ~better:Higher ?bound name v
let lower ?digits ?unit ?bound name v = make ?digits ?unit ~better:Lower ?bound name v

(** A condition that must hold: 1 when true, gated at 1. *)
let flag name ok = higher ~unit:"bool" ~bound:1.0 name (if ok then 1.0 else 0.0)

(* ---- gate ---- *)

let passes m =
  match (m.better, m.bound) with
  | Some Higher, Some b -> m.value >= b
  | Some Lower, Some b -> m.value <= b
  | _ -> true

(** The metrics that miss their gate bound (empty: the gate passes). *)
let gate t = List.filter (fun m -> not (passes m)) t.metrics

(* ---- writer ---- *)

(* Integers print plainly; anything else as the shortest decimal that
   reads back as the same float, so a write/read round trip is exact. *)
let number v =
  if not (Float.is_finite v) then invalid_arg "Bench_result: non-finite value";
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else go 1

let quoted s =
  if String.exists (fun c -> c = '"' || c = '\\' || c < ' ') s then
    invalid_arg ("Bench_result: string needs escaping: " ^ s);
  "\"" ^ s ^ "\""

let better_name = function Higher -> "higher" | Lower -> "lower"

let bound_text m =
  match (m.better, m.bound) with
  | Some Higher, Some b -> ">= " ^ number b
  | Some Lower, Some b -> "<= " ^ number b
  | _ -> ""

let config_text config =
  String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) config)

let metric_json m =
  let opt k = Option.fold ~none:"" ~some:(fun v -> Printf.sprintf ", %s: %s" (quoted k) v) in
  Printf.sprintf "{\"name\": %s, \"value\": %s, \"unit\": %s%s%s}" (quoted m.name)
    (number m.value) (quoted m.unit)
    (opt "better" (Option.map (fun b -> quoted (better_name b)) m.better))
    (opt "bound" (Option.map number m.bound))

let to_json t =
  Printf.sprintf "{\n  \"bench\": %s,\n  \"config\": {%s},\n  \"metrics\": [\n%s\n  ]\n}\n"
    (quoted t.bench)
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %d" (quoted k) v) t.config))
    (String.concat ",\n" (List.map (fun m -> "    " ^ metric_json m) t.metrics))

(* ---- reader ---- *)

type json = Num of float | Str of string | Arr of json list | Obj of (string * json) list

exception Bad of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail what = raise (Bad (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec peek () =
    if !pos >= n then None
    else
      match text.[!pos] with
      | ' ' | '\n' | '\r' | '\t' -> incr pos; peek ()
      | c -> Some c
  in
  let expect c = if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  (* Not part of the recursion below, so it stays polymorphic in [item]. *)
  let items close item =
    if peek () = Some close then (incr pos; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        if peek () = Some ',' then (incr pos; go acc) else (expect close; List.rev acc)
      in
      go []
  in
  let str () =
    expect '"';
    match String.index_from_opt text !pos '"' with
    | Some j ->
      let s = String.sub text !pos (j - !pos) in
      pos := j + 1;
      s
    | None -> fail "unterminated string"
  in
  let num () =
    let start = !pos in
    while
      !pos < n
      && match text.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "expected a value"
  in
  let rec value () =
    match peek () with
    | Some '{' ->
      incr pos;
      Obj (items '}' (fun () ->
          let k = str () in
          expect ':';
          (k, value ())))
    | Some '[' -> incr pos; Arr (items ']' value)
    | Some '"' -> Str (str ())
    | _ -> num ()
  in
  let v = value () in
  if peek () <> None then fail "trailing bytes";
  v

let num = function Num f -> f | _ -> raise (Bad "expected a number")
let str = function Str s -> s | _ -> raise (Bad "expected a string")
let arr = function Arr l -> l | _ -> raise (Bad "expected an array")
let obj = function Obj kvs -> kvs | _ -> raise (Bad "expected an object")

let field k j =
  match List.assoc_opt k (obj j) with Some v -> v | None -> raise (Bad ("missing " ^ k))

let metric_of j =
  let opt k f = match field k j with v -> Some (f v) | exception Bad _ -> None in
  { name = str (field "name" j); value = num (field "value" j); unit = str (field "unit" j);
    better =
      opt "better" (fun v ->
          match str v with
          | "higher" -> Higher
          | "lower" -> Lower
          | s -> raise (Bad ("unknown direction " ^ s)));
    bound = opt "bound" num }

let decode j =
  { bench = str (field "bench" j);
    config = List.map (fun (k, v) -> (k, int_of_float (num v))) (obj (field "config" j));
    metrics = List.map metric_of (arr (field "metrics" j)) }

let of_json text = match decode (parse text) with t -> Ok t | exception Bad msg -> Error msg

(* ---- drift ---- *)

(** Allowed fractional move of a metric in its worse direction. *)
let drift_tolerance = 0.2

type regression = { metric : string; baseline : float; current : float; limit : float }

(** Compare every metric with a better direction against [baseline].
    [Error] when the two results are not comparable (another bench, a
    different configuration, or a baseline metric the current result
    lacks); otherwise the metrics that moved more than
    [drift_tolerance] in their worse direction. *)
let drift ~baseline ~current =
  let sorted c = List.sort compare c in
  if baseline.bench <> current.bench then
    Error (Printf.sprintf "bench %s vs %s" baseline.bench current.bench)
  else if sorted baseline.config <> sorted current.config then
    Error
      (Printf.sprintf "configuration differs: baseline {%s} vs current {%s}"
         (config_text baseline.config) (config_text current.config))
  else
    let check acc b =
      match (acc, b.better) with
      | Error _, _ | _, None -> acc
      | Ok regs, Some better -> (
        match List.find_opt (fun c -> c.name = b.name) current.metrics with
        | None -> Error ("metric " ^ b.name ^ " missing from the current result")
        | Some c ->
          (* the drift limit is a gate bound derived from the baseline *)
          let slack = drift_tolerance *. Float.abs b.value in
          let limit = if better = Higher then b.value -. slack else b.value +. slack in
          if passes { c with better = Some better; bound = Some limit } then acc
          else Ok ({ metric = b.name; baseline = b.value; current = c.value; limit } :: regs))
    in
    Result.map List.rev (List.fold_left check (Ok []) baseline.metrics)

(* ---- files and display ---- *)

let write path t =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Result.map_error (fun e -> path ^ ": " ^ e) (of_json text)
  | exception Sys_error msg -> Error msg

(** Print the metrics that have a better direction, with their bounds;
    the informational rest is in the JSON. *)
let print t =
  Table.print
    ~title:(Printf.sprintf "%s bench (%s)" t.bench (config_text t.config))
    ~header:[ "metric"; "value"; "unit"; "better"; "gate" ]
    (List.filter_map
       (fun m ->
         Option.map
           (fun b ->
             [ m.name; number m.value; m.unit; better_name b; bound_text m ])
           m.better)
       t.metrics)
