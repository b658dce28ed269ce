(** The chaos workload: an append-only ledger server plus a client that
    remembers which writes were acknowledged.

    Each request appends one globally unique id; the server acknowledges
    with [OK <id>] only after the write is admitted from the PAXOS
    sequence, so an acknowledgement implies the id was decided by a
    quorum.  At the end of a run the checker demands that every
    acknowledged id is present in every live replica's state — the
    "no client-acked request lost" invariant.  Retried attempts use fresh
    ids, which keeps the check sound under at-least-once delivery: an
    unacked id may or may not land in the ledger, an acked one must. *)

module Time = Crane_sim.Time
module Sock = Crane_socket.Sock
module Api = Crane_core.Api
module Target = Crane_workload.Target

let server : Api.server =
  {
    Api.name = "ledger";
    install = (fun fs -> Crane_fs.Memfs.write fs ~path:"install/ledger.conf" "port=80");
    boot =
      (fun api ->
        let module R = (val api : Api.API) in
        let ids = ref [] in
        (* newest first *)
        let count = ref 0 in
        (* The rendered ledger, oldest first: GETs, fast reads and
           [state_of] share it until the next PUT or [load_state]. *)
        let rendered = ref (Some "") in
        let snapshot () =
          match !rendered with
          | Some s -> s
          | None ->
            let s = String.concat "," (List.rev !ids) in
            rendered := Some s;
            s
        in
        let stopped = ref false in
        (* Reader-writer lock, not a mutex: GETs only read the list, and
           a mutex would serialize (and order) concurrent GET commands
           that the delivery layer is entitled to run in parallel. *)
        let mu = R.rwlock ~name:"ledger.ids" () in
        R.spawn ~name:"ledger-listener" (fun () ->
            let l = R.listen ~port:80 in
            while not !stopped do
              R.poll l;
              let c = R.accept l in
              R.spawn ~name:"ledger-worker" (fun () ->
                  let rec serve buf =
                    match String.index_opt buf '\n' with
                    | Some i ->
                      let line = String.trim (String.sub buf 0 i) in
                      let rest = String.sub buf (i + 1) (String.length buf - i - 1) in
                      (match String.split_on_char ' ' line with
                      | [ "PUT"; id ] ->
                        R.wrlock mu;
                        ids := id :: !ids;
                        rendered := None;
                        incr count;
                        R.rwunlock mu;
                        R.send c (Printf.sprintf "OK %s\n" id)
                      | [ "GET" ] ->
                        (* Consensus-path read: the all-consensus baseline
                           and the fast path's REJECT/fallback route. *)
                        R.rdlock mu;
                        let snapshot = snapshot () in
                        R.rwunlock mu;
                        R.send c (Printf.sprintf "IDS %s\n" snapshot)
                      | _ -> R.send c "ERR\n");
                      serve rest
                    | None ->
                      let chunk = R.recv c ~max:4096 in
                      if chunk = "" then R.close c else serve (buf ^ chunk)
                  in
                  serve "")
            done);
        {
          Api.server_name = "ledger";
          state_of = snapshot;
          load_state =
            (fun s ->
              let l = if s = "" then [] else String.split_on_char ',' s in
              ids := List.rev l;
              rendered := None;
              count := List.length l);
          mem_bytes = (fun () -> 1_000_000 + (16 * !count));
          stop = (fun () -> stopped := true);
          read =
            (fun line ->
              if String.trim line = "GET" then
                Some (Printf.sprintf "IDS %s\n" (snapshot ()))
              else None);
          footprint =
            (fun line ->
              (* The whole ledger is one resource: PUTs all conflict (the
                 honest footprint of an append-only list), GETs only read
                 it and may run alongside each other. *)
              match String.split_on_char ' ' (String.trim line) with
              | [ "PUT"; _ ] ->
                Some { Api.fp_reads = []; fp_writes = [ "ledger" ] }
              | [ "GET" ] -> Some { Api.fp_reads = [ "ledger" ]; fp_writes = [] }
              | _ -> None);
        });
  }

type client = {
  mutable attempts : int;  (** also the id source: every attempt is unique *)
  acked : (string, unit) Hashtbl.t;
}

let client () = { attempts = 0; acked = Hashtbl.create 512 }

let acked_ids t =
  List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) t.acked [])

let acked_count t = Hashtbl.length t.acked

(* One request: PUT a fresh id, succeed only on a matching OK.  A short
   recv timeout (vs. the benchmarks' 120 s) makes a stalled primary a
   transient failure the loadgen can retry, not a wedged client. *)
let request t target ~from =
  ignore from;
  t.attempts <- t.attempts + 1;
  let id = Printf.sprintf "w%d" t.attempts in
  match Target.connect target ~from with
  | None -> None
  | Some conn ->
    let resp =
      try
        Sock.send conn (Printf.sprintf "PUT %s\n" id);
        let rec read buf =
          if String.contains buf '\n' then Some buf
          else
            let chunk = Sock.recv ~timeout:(Time.sec 5) conn ~max:4096 in
            if chunk = "" then if buf = "" then None else Some buf
            else read (buf ^ chunk)
        in
        read ""
      with Sock.Connection_closed -> None
    in
    (try Sock.close conn with Sock.Connection_closed -> ());
    (match resp with
    | Some r when String.length r >= String.length ("OK " ^ id)
                  && String.sub r 0 (String.length ("OK " ^ id)) = "OK " ^ id ->
      Hashtbl.replace t.acked id ();
      resp
    | Some _ | None -> None)

(* Parse a replica's ledger state back into an id set. *)
let ids_of_state s =
  if s = "" then [] else String.split_on_char ',' s

(* ------------------------------------------------------------------ *)
(* Read clients. *)

module Proxy = Crane_core.Proxy

(* Consensus-path GET: the all-consensus read baseline, and the fallback
   when the fast path answers REJECT.  Returns the [IDS ...] line. *)
let consensus_get target ~from =
  match Target.connect target ~from with
  | None -> None
  | Some conn ->
    let resp =
      try
        Sock.send conn "GET\n";
        let rec read buf =
          if String.contains buf '\n' then Some buf
          else
            let chunk = Sock.recv ~timeout:(Time.sec 5) conn ~max:65536 in
            if chunk = "" then if buf = "" then None else Some buf
            else read (buf ^ chunk)
        in
        read ""
      with Sock.Connection_closed -> None
    in
    (try Sock.close conn with Sock.Connection_closed -> ());
    (match resp with
    | Some r when String.length r >= 4 && String.sub r 0 4 = "IDS " -> resp
    | Some _ | None -> None)

(* One fast-path read against [rtarget] (a read-port target): GET through
   the proxy's read envelope.  None = transport failure. *)
let fast_get rtarget ~from =
  match Target.connect rtarget ~from with
  | None -> None
  | Some conn ->
    let reply =
      try
        Sock.send conn (Proxy.encode_read_request "GET\n");
        let rec go buf =
          match Proxy.parse_read_reply buf with
          | Some (r, _) -> Some r
          | None ->
            let chunk = Sock.recv ~timeout:(Time.sec 5) conn ~max:65536 in
            if chunk = "" then None else go (buf ^ chunk)
        in
        go ""
      with Sock.Connection_closed -> None
    in
    (try Sock.close conn with Sock.Connection_closed -> ());
    reply

(* Fast path with consensus fallback: the client-visible read operation.
   [Served] answers return their value; a rejected or transport-failed
   fast read retries on the consensus funnel. *)
let read_request ~rtarget ~target ~from =
  match fast_get rtarget ~from with
  | Some (Proxy.Served r) -> Some r.Proxy.value
  | Some Proxy.Rejected | Some Proxy.Write_required | None ->
    consensus_get target ~from

(* Parse the ids out of an [IDS ...] reply line. *)
let ids_of_reply r =
  match String.index_opt r '\n' with
  | Some i when String.length r >= 4 && String.sub r 0 4 = "IDS " ->
    ids_of_state (String.trim (String.sub r 4 (i - 4)))
  | Some _ | None -> []
