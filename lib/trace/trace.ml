(** The flight recorder: a deterministic event sink for the simulated
    cluster.

    Every event carries a virtual timestamp (nanoseconds — the engine's
    [Time.t]), the engine thread id, and a replica attribution (either an
    explicit node name or a thread group resolved through
    {!register_group}).  Because the whole stack runs in virtual time on
    a deterministic engine, the same seed produces a byte-identical
    trace: the exported JSON doubles as a regression oracle.

    The sink is designed to be (near) zero cost when disabled: the
    instrumented hot paths check {!enabled} before building any event
    payload, and the shared {!null} sink is permanently disabled. *)

type arg = Int of int | Str of string

type phase =
  | Instant
  | Begin  (** span open — matched with [End] per (node, tid, cat, name) *)
  | End
  | Async_begin of int  (** cross-thread span, matched by (cat, name, id) *)
  | Async_end of int
  | Counter of int  (** sampled gauge value *)

type ev = {
  ts : int;  (** virtual nanoseconds *)
  tid : int;  (** engine thread id, -1 outside any thread *)
  group : int;  (** engine thread group, -1 if none *)
  node : string;  (** replica name, "" when only the group is known *)
  cat : string;
  name : string;
  ph : phase;
  args : (string * arg) list;
}

type t = {
  mutable enabled : bool;
  retain : bool;  (** keep events for export (off for streaming-only) *)
  limit : int;
  mutable evs : ev list;  (** newest first *)
  mutable n : int;
  mutable dropped : int;
  mutable sinks : (ev -> unit) list;
  groups : (int, string) Hashtbl.t;  (** thread group -> replica name *)
}

let create ?(retain = true) ?(limit = 5_000_000) () =
  {
    enabled = true;
    retain;
    limit;
    evs = [];
    n = 0;
    dropped = 0;
    sinks = [];
    groups = Hashtbl.create 8;
  }

(* The shared disabled sink: the default recorder of every engine. *)
let null =
  let t = create ~retain:false () in
  t.enabled <- false;
  t

let enabled t = t.enabled
let set_enabled t on = if t != null then t.enabled <- on
let length t = t.n
let dropped t = t.dropped
(* [null] is shared by every untraced engine in the process: a sink on
   it would be process-global state, and since [null] never emits it
   would also never be called. *)
let add_sink t f =
  if t == null then invalid_arg "Trace.add_sink: the shared null recorder";
  t.sinks <- t.sinks @ [ f ]

let register_group t ~group ~node =
  if t.enabled then Hashtbl.replace t.groups group node

let resolve_node t ev =
  if ev.node <> "" then ev.node
  else
    match Hashtbl.find_opt t.groups ev.group with Some n -> n | None -> ""

let emit t ev =
  if t.enabled then begin
    List.iter (fun f -> f ev) t.sinks;
    if t.retain then
      if t.n < t.limit then begin
        t.evs <- ev :: t.evs;
        t.n <- t.n + 1
      end
      else t.dropped <- t.dropped + 1
  end

let events t = List.rev t.evs

let find_int ev key =
  match List.assoc_opt key ev.args with
  | Some (Int i) -> Some i
  | Some (Str _) | None -> None

let find_str ev key =
  match List.assoc_opt key ev.args with
  | Some (Str s) -> Some s
  | Some (Int _) | None -> None

let mk ~ts ~tid ?(group = -1) ?(node = "") ~cat ~name ~ph args =
  { ts; tid; group; node; cat; name; ph; args }

let instant t ~ts ~tid ?group ?node ~cat ~name args =
  emit t (mk ~ts ~tid ?group ?node ~cat ~name ~ph:Instant args)

let span_begin t ~ts ~tid ?group ?node ~cat ~name args =
  emit t (mk ~ts ~tid ?group ?node ~cat ~name ~ph:Begin args)

let span_end t ~ts ~tid ?group ?node ~cat ~name args =
  emit t (mk ~ts ~tid ?group ?node ~cat ~name ~ph:End args)

let async_begin t ~ts ~tid ~id ?group ?node ~cat ~name args =
  emit t (mk ~ts ~tid ?group ?node ~cat ~name ~ph:(Async_begin id) args)

let async_end t ~ts ~tid ~id ?group ?node ~cat ~name args =
  emit t (mk ~ts ~tid ?group ?node ~cat ~name ~ph:(Async_end id) args)

let counter t ~ts ~tid ?group ?node ~name value =
  emit t (mk ~ts ~tid ?group ?node ~cat:"counter" ~name ~ph:(Counter value) [])

(* Membership lifecycle: join / leave / fence / reconfig_propose instants
   under one category, so a timeline shows each replica's configuration
   history as a single track. *)
let member t ~ts ~tid ?group ?node ~name args =
  emit t (mk ~ts ~tid ?group ?node ~cat:"member" ~name ~ph:Instant args)

(* ------------------------------------------------------------------ *)
(* Exporters.  All output is produced with integer arithmetic and
   insertion-ordered iteration so that equal event sequences render to
   byte-identical text. *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Virtual microseconds with nanosecond precision, as chrome://tracing
   expects.  Integer math keeps the rendering deterministic. *)
let us_of_ns ns = Printf.sprintf "%d.%03d" (ns / 1000) (abs ns mod 1000)

let args_json args =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":%s" (escape k)
             (match v with Int i -> string_of_int i | Str s -> "\"" ^ escape s ^ "\""))
         args)
  ^ "}"

(* Stable pid numbering: pid 0 is the unattributed simulator substrate,
   replicas are numbered in order of first appearance in the event
   stream. *)
let pid_table t evs =
  let order = ref [] and pids = Hashtbl.create 8 and next = ref 1 in
  List.iter
    (fun ev ->
      let node = resolve_node t ev in
      if node <> "" && not (Hashtbl.mem pids node) then begin
        Hashtbl.add pids node !next;
        order := node :: !order;
        incr next
      end)
    evs;
  (List.rev !order, fun ev -> match resolve_node t ev with
    | "" -> 0
    | node -> Hashtbl.find pids node)

let chrome_record ~pid ev =
  let common =
    Printf.sprintf "\"cat\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":%d" (escape ev.cat)
      (us_of_ns ev.ts) pid ev.tid
  in
  let name = escape ev.name in
  match ev.ph with
  | Instant ->
    Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"i\",\"s\":\"t\",\"args\":%s}" name common
      (args_json ev.args)
  | Begin ->
    Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"B\",\"args\":%s}" name common
      (args_json ev.args)
  | End -> Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"E\"}" name common
  | Async_begin id ->
    Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"b\",\"id\":%d,\"args\":%s}" name common id
      (args_json ev.args)
  | Async_end id ->
    Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"e\",\"id\":%d}" name common id
  | Counter v ->
    Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"C\",\"args\":{\"%s\":%d}}" name common name v

(** Chrome [trace_event] JSON (load in chrome://tracing or Perfetto). *)
let to_chrome t =
  let evs = events t in
  let nodes, pid_of = pid_table t evs in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"sim\"}}";
  List.iteri
    (fun i node ->
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           (i + 1) (escape node)))
    nodes;
  List.iter
    (fun ev ->
      Buffer.add_string b ",\n";
      Buffer.add_string b (chrome_record ~pid:(pid_of ev) ev))
    evs;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let ph_string = function
  | Instant -> "i"
  | Begin -> "B"
  | End -> "E"
  | Async_begin _ -> "b"
  | Async_end _ -> "e"
  | Counter _ -> "C"

(** One JSON object per line: the stream-processing-friendly format. *)
let to_jsonl t =
  let b = Buffer.create 65536 in
  List.iter
    (fun ev ->
      let extra =
        match ev.ph with
        | Async_begin id | Async_end id -> Printf.sprintf ",\"id\":%d" id
        | Counter v -> Printf.sprintf ",\"value\":%d" v
        | Instant | Begin | End -> ""
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"ts\":%d,\"node\":\"%s\",\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ph\":\"%s\"%s,\"args\":%s}\n"
           ev.ts
           (escape (resolve_node t ev))
           ev.tid (escape ev.cat) (escape ev.name) (ph_string ev.ph) extra
           (args_json ev.args)))
    (events t);
  Buffer.contents b
