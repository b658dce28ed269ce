(* Tests for the discrete-event kernel: ordering, determinism, threads,
   wakers, groups/kill semantics, core pool. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Pheap = Crane_sim.Pheap
module Engine = Crane_sim.Engine
module Cores = Crane_sim.Cores

let check_no_failures eng =
  match Engine.failures eng with
  | [] -> ()
  | (name, e) :: _ ->
    Alcotest.failf "thread %s failed: %s" name (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Pheap *)

(* Pop every entry, checking [min_time] against each popped key. *)
let pheap_drain h =
  let rec go acc =
    if Pheap.is_empty h then begin
      Alcotest.(check int) "min_time of an empty heap" max_int (Pheap.min_time h);
      List.rev acc
    end
    else
      let time = Pheap.min_time h in
      let ((t, _, _) as v) = Pheap.pop_value h in
      if t <> time then Alcotest.failf "min_time %d but popped time %d" time t;
      go (v :: acc)
  in
  go []

let test_pheap_order () =
  let h = Pheap.create () in
  List.iteri
    (fun seq (time, name) -> Pheap.push h ~time ~seq (time, seq, name))
    [ (5, "a"); (1, "b"); (5, "c"); (0, "d") ];
  Alcotest.(check (list string)) "time then seq" [ "d"; "b"; "a"; "c" ]
    (List.map (fun (_, _, v) -> v) (pheap_drain h));
  Alcotest.check_raises "pop_value on an empty heap"
    (Invalid_argument "Pheap.pop_value: empty heap") (fun () ->
      ignore (Pheap.pop_value h))

(* Interleaved pushes and pops against a sorted-list model: every pop
   returns the model's minimum by (time, seq), [min_time] always agrees
   with it ([max_int] when empty), and the final drain is sorted. *)
(* The model is a set of (time, seq) keys: the value pushed with a key
   is always [(time, seq, ())], so the set determines every expected pop. *)
module Keys = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let prop_pheap_sorted =
  QCheck.Test.make ~name:"pheap pops sorted by (time, seq)" ~count:200
    QCheck.(list (option small_nat))
    (fun ops ->
      let h = Pheap.create () in
      let model = ref Keys.empty and ok = ref true in
      List.iteri
        (fun seq op ->
          (match (op, Keys.min_elt_opt !model) with
           | Some time, _ ->
             Pheap.push h ~time ~seq (time, seq, ());
             model := Keys.add (time, seq) !model
           | None, None -> ()
           | None, Some ((time, s) as m) ->
             if Pheap.pop_value h <> (time, s, ()) then ok := false;
             model := Keys.remove m !model);
          let expect =
            match Keys.min_elt_opt !model with None -> max_int | Some (t, _) -> t
          in
          if Pheap.min_time h <> expect then ok := false)
        ops;
      !ok
      && pheap_drain h = List.map (fun (t, s) -> (t, s, ())) (Keys.elements !model))

(* Past two growths of the initial 16 entries, with pops interleaved so
   that freed value slots are reused: every pop still returns the
   model's minimum, with its own value. *)
let test_pheap_growth_reuse () =
  let h = Pheap.create () in
  let model = ref [] and seq = ref 0 in
  let push time =
    Pheap.push h ~time ~seq:!seq (time, !seq, ());
    model := List.sort compare ((time, !seq, ()) :: !model);
    incr seq
  in
  let pop () =
    match !model with
    | [] -> assert false
    | m :: rest ->
      if Pheap.pop_value h <> m then Alcotest.fail "popped entry is not the minimum";
      model := rest
  in
  for round = 0 to 49 do
    push ((round * 7919) mod 23);
    push ((round * 104729) mod 17);
    if round mod 3 = 0 then pop ()
  done;
  Alcotest.(check bool) "grew past 64 entries" true (Pheap.length h > 64);
  Alcotest.(check int) "length" (List.length !model) (Pheap.length h);
  Alcotest.(check bool) "drains sorted" true (pheap_drain h = !model)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.next a and xb = Rng.next b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

(* Every output of a seed is pinned: a change to how the state is stored
   must not move any draw. *)
let test_rng_outputs_pinned () =
  let check seed ~next ~split_next ~int ~float =
    let r = Rng.create seed in
    Alcotest.(check int64) "next" next (Rng.next r);
    let child = Rng.split r in
    Alcotest.(check int64) "split, then next" split_next (Rng.next child);
    Alcotest.(check int) "int" int (Rng.int r 1000);
    Alcotest.(check (float 0.0)) "float" float (Rng.float r 1.0)
  in
  check 1 ~next:(-4616330145664149646L) ~split_next:(-9080572566289094619L)
    ~int:763 ~float:0x1.e881fc76c58f3p-1;
  check 42 ~next:(-7450291807549245335L) ~split_next:7382028192048325405L
    ~int:570 ~float:0x1.896d649de031p-5

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      0 <= x && x < bound)

let prop_rng_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_nat (small_list int))
    (fun (seed, l) ->
      let r = Rng.create seed in
      List.sort compare (Rng.shuffle r l) = List.sort compare l)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_timers_fire_in_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.at eng (Time.ms 3) (fun () -> log := 3 :: !log);
  Engine.at eng (Time.ms 1) (fun () -> log := 1 :: !log);
  Engine.at eng (Time.ms 2) (fun () -> log := 2 :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" (Time.ms 3) (Engine.now eng)

let test_same_instant_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.at eng (Time.ms 1) (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !log)

let test_thread_sleep () =
  let eng = Engine.create () in
  let t_end = ref Time.zero in
  Engine.spawn eng ~name:"sleeper" (fun () ->
      Engine.sleep eng (Time.ms 5);
      Engine.sleep eng (Time.ms 7);
      t_end := Engine.now eng);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "slept 12ms" (Time.ms 12) !t_end

let test_suspend_wake () =
  let eng = Engine.create () in
  let slot = ref None in
  let result = ref 0 in
  Engine.spawn eng ~name:"blocker" (fun () ->
      let v = Engine.suspend eng (fun wake -> slot := Some wake) in
      result := v);
  Engine.spawn eng ~name:"waker" (fun () ->
      Engine.sleep eng (Time.ms 1);
      match !slot with
      | Some wake -> Alcotest.(check bool) "wake wins" true (wake 42)
      | None -> Alcotest.fail "blocker did not park");
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "woken with value" 42 !result

let test_waker_idempotent () =
  let eng = Engine.create () in
  let slot = ref None in
  let hits = ref 0 in
  Engine.spawn eng ~name:"blocker" (fun () ->
      let _ = Engine.suspend eng (fun wake -> slot := Some wake) in
      incr hits);
  Engine.spawn eng ~name:"waker" (fun () ->
      Engine.sleep eng (Time.ms 1);
      match !slot with
      | Some wake ->
        Alcotest.(check bool) "first" true (wake 1);
        Alcotest.(check bool) "second loses" false (wake 2)
      | None -> Alcotest.fail "no waker");
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "resumed once" 1 !hits

let test_kill_group () =
  let eng = Engine.create () in
  let g = Engine.new_group eng in
  let progressed = ref 0 in
  let hook_ran = ref false in
  Engine.on_kill eng g (fun () -> hook_ran := true);
  Engine.spawn eng ~group:g ~name:"victim" (fun () ->
      incr progressed;
      Engine.sleep eng (Time.ms 10);
      incr progressed);
  Engine.at eng (Time.ms 5) (fun () -> Engine.kill_group eng g);
  Engine.at eng ~group:g (Time.ms 7) (fun () -> progressed := 100);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "stopped mid-sleep, group callback dropped" 1 !progressed;
  Alcotest.(check bool) "kill hook ran" true !hook_ran;
  Alcotest.(check bool) "group dead" false (Engine.group_alive eng g)

let test_timer_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let cancel = Engine.timer eng (Time.ms 2) (fun () -> fired := true) in
  Engine.at eng (Time.ms 1) (fun () -> cancel ());
  Engine.run eng;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_run_until () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.at eng (Time.ms 10) (fun () -> fired := true);
  Engine.run ~until:(Time.ms 5) eng;
  Alcotest.(check bool) "future event pending" false !fired;
  Alcotest.(check int) "clock stopped at until" (Time.ms 5) (Engine.now eng);
  Engine.run eng;
  Alcotest.(check bool) "resumes" true !fired

let test_spawn_inherits_group () =
  let eng = Engine.create () in
  let g = Engine.new_group eng in
  let child_ran = ref false in
  Engine.spawn eng ~group:g ~name:"parent" (fun () ->
      Engine.spawn eng ~name:"child" (fun () ->
          Engine.sleep eng (Time.ms 10);
          child_ran := true));
  Engine.at eng (Time.ms 1) (fun () -> Engine.kill_group eng g);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "child died with parent group" false !child_ran

let test_failure_recorded () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"bad" (fun () -> failwith "boom");
  Engine.run eng;
  match Engine.failures eng with
  | [ ("bad", Failure _) ] -> ()
  | _ -> Alcotest.fail "expected one recorded failure"

let test_limit () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"loop" (fun () ->
      let rec go () =
        Engine.yield eng;
        go ()
      in
      go ());
  Alcotest.check_raises "limit guard" Engine.Limit_exceeded (fun () ->
      Engine.run ~limit:1000 eng)

(* The sleep-elision cases below pin what the engine did before sleeps
   could skip their timer and resume events: clocks, run orders and
   logical event counts ([dispatched + elided], which elision must not
   change).  A naive elision fails each of them. *)
let logical eng = Engine.dispatched eng + Engine.elided eng

(* The budget counts elided events: a sleep loop raises after the same
   logical event, with the clock where the queued sleeps left it.  The
   loop is finite so that an engine whose elided sleeps escape the budget
   fails here instead of spinning. *)
let test_limit_sleep () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"loop" (fun () ->
      for _ = 1 to 100_000 do
        Engine.sleep eng (Time.ns 1)
      done);
  Alcotest.check_raises "limit guard" Engine.Limit_exceeded (fun () ->
      Engine.run ~limit:1000 eng);
  Alcotest.(check int) "clock at the guard" 500 (Engine.now eng);
  Alcotest.(check int) "logical events" 1000 (logical eng);
  Alcotest.(check bool) "sleeps were elided" true (Engine.elided eng > 0)

(* A wake beyond [until] waits for the next slice, and an event injected
   between the slices still runs before it. *)
let test_sleep_beyond_until () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s = log := (s, Engine.now eng) :: !log in
  Engine.spawn eng ~name:"sleeper" (fun () ->
      Engine.sleep eng (Time.ms 10);
      note "wake");
  Engine.run ~until:(Time.ms 5) eng;
  Alcotest.(check int) "clock stops at until" (Time.ms 5) (Engine.now eng);
  Alcotest.(check (list (pair string int))) "not woken yet" [] !log;
  Engine.at eng (Time.ms 7) (fun () -> note "injected");
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "injected event first"
    [ ("injected", Time.ms 7); ("wake", Time.ms 10) ]
    (List.rev !log);
  Alcotest.(check int) "logical events" 4 (logical eng)

(* Sleepers waking at T alongside events at T queued before and after
   the sleeps: each resume queues behind everything already due at T. *)
let test_sleep_same_instant_order () =
  let eng = Engine.create () in
  let order = ref [] in
  let note s () = order := s :: !order in
  let t = Time.us 10 in
  Engine.at eng t (note "before");
  List.iter
    (fun name ->
      Engine.spawn eng ~name (fun () ->
          Engine.sleep eng t;
          note name ()))
    [ "s1"; "s2" ];
  Engine.at eng (Time.us 5) (fun () -> Engine.at eng t (note "after"));
  (* A lone sleeper after the crowd: nothing interleaves, so it elides. *)
  Engine.spawn eng ~name:"late" (fun () ->
      Engine.sleep eng (Time.us 20);
      Engine.sleep eng (Time.us 1);
      note "late" ());
  Engine.run eng;
  Alcotest.(check (list string))
    "run order"
    [ "before"; "after"; "s1"; "s2"; "late" ]
    (List.rev !order);
  Alcotest.(check int) "clock" (Time.us 21) (Engine.now eng);
  Alcotest.(check int) "logical events" 14 (logical eng);
  Alcotest.(check bool) "the lone sleep was elided" true (Engine.elided eng > 0)

(* A thread that kills its own group and then sleeps never resumes; its
   timer still fires. *)
let test_sleep_after_self_kill () =
  let eng = Engine.create () in
  let g = Engine.new_group eng in
  let resumed = ref false in
  Engine.spawn eng ~group:g ~name:"doomed" (fun () ->
      Engine.kill_group eng g;
      Engine.sleep eng (Time.us 1);
      resumed := true);
  Engine.run eng;
  Alcotest.(check bool) "never resumes" false !resumed;
  Alcotest.(check int) "clock" (Time.us 1) (Engine.now eng);
  Alcotest.(check int) "logical events" 2 (logical eng)

(* Determinism: the same seeded program produces the identical trace. *)
let run_noise_trace seed =
  let eng = Engine.create () in
  let rng = Rng.create seed in
  let trace = Buffer.create 256 in
  for i = 1 to 20 do
    let d = Time.us (Rng.int rng 500) in
    Engine.at eng d (fun () ->
        Buffer.add_string trace (Printf.sprintf "%d@%d;" i (Engine.now eng)))
  done;
  Engine.spawn eng ~name:"t" (fun () ->
      for _ = 1 to 5 do
        Engine.sleep eng (Time.us (Rng.int rng 300));
        Buffer.add_string trace (Printf.sprintf "t@%d;" (Engine.now eng))
      done);
  Engine.run eng;
  Buffer.contents trace

let test_deterministic_replay () =
  Alcotest.(check string) "identical traces" (run_noise_trace 99) (run_noise_trace 99)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine replay is deterministic" ~count:50
    QCheck.small_nat
    (fun seed -> run_noise_trace seed = run_noise_trace seed)

(* An [until] before now, with an event due at the current instant: it
   stays behind the events queued at that instant before it and ahead of
   those scheduled after it, as if it had been queued with them. *)
let test_run_until_before_now () =
  let eng = Engine.create () in
  let order = ref [] in
  let note s () = order := (s, Engine.now eng) :: !order in
  Engine.at eng (Time.us 10) (note "a");
  Engine.run ~until:(Time.us 10) eng;
  Engine.at eng (Time.us 10) (note "b");
  Engine.at eng (Time.us 12) (note "c");
  Engine.run ~until:(Time.us 5) eng;
  Alcotest.(check int) "clock moved back" (Time.us 5) (Engine.now eng);
  Engine.at eng (Time.us 10) (note "d");
  Engine.at eng (Time.us 7) (note "e");
  Engine.at eng (Time.us 5) (note "f");
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "run order"
    [ ("a", Time.us 10); ("f", Time.us 5); ("e", Time.us 7); ("b", Time.us 10);
      ("d", Time.us 10); ("c", Time.us 12) ]
    (List.rev !order)

(* Random programs against a heap-only reference.  A program is a tree
   of actions run by callbacks and threads; the engine interprets it
   through its API, and [Reference] through a plain (time, seq)-ordered
   map in which every logical event (callback, timer, spawn, resume) is
   one dispatch.  Both run the same [run ~until ~limit] slices. *)
type act =
  | Log of int
  | After of Time.t * Engine.group option * act list
  | At of Time.t * Engine.group option * act list (* now + delta, may be < 0 *)
  | Timer of Time.t * act list
  | Cancel of int (* the k-th timer created, if it exists yet *)
  | Spawn of Engine.group option * act list
  | Sleep of Time.t (* threads only; ignored in callbacks *)
  | Yield
  | Kill of Engine.group

type outcome = { log : (Time.t * int) list; slices : (bool * Time.t * int) list }

module Reference = struct
  module Key = struct
    type t = int * int
    let compare = compare
  end

  module Q = Map.Make (Key)

  type t = {
    mutable clock : Time.t;
    mutable seq : int;
    mutable q : (unit -> unit) Q.t;
    mutable dead : Engine.group list;
    mutable logical : int;
    mutable last : Key.t;
    mutable log : (Time.t * int) list;
    mutable timers : bool ref list; (* newest first *)
  }

  let alive r = function None -> true | Some g -> not (List.mem g r.dead)

  let schedule r ?group time fn =
    let time = max time r.clock in
    r.q <- Q.add (time, r.seq) (fun () -> if alive r group then fn ()) r.q;
    r.seq <- r.seq + 1

  let rec exec r ~thread a =
    match a with
    | Log id -> r.log <- (r.clock, id) :: r.log
    | After (d, group, body) | At (d, group, body) ->
      schedule r ?group (r.clock + d) (fun () -> List.iter (exec r ~thread:None) body)
    | Timer (d, body) ->
      let cancelled = ref false in
      r.timers <- cancelled :: r.timers;
      schedule r (r.clock + d) (fun () ->
          if not !cancelled then List.iter (exec r ~thread:None) body)
    | Cancel k ->
      let n = List.length r.timers in
      if k < n then List.nth r.timers (n - 1 - k) := true
    | Spawn (g, body) ->
      let group = match g with Some _ -> g | None -> Option.join thread in
      schedule r r.clock (fun () -> if alive r group then thread_body r group body)
    | Sleep _ | Yield -> () (* in a callback; threads take them below *)
    | Kill g -> if not (List.mem g r.dead) then r.dead <- g :: r.dead

  (* A thread's sleep: a timer event at the wake instant, then a resume
     event queued behind everything already due there. *)
  and thread_body r group = function
    | [] -> ()
    | ((Sleep _ | Yield) as a) :: rest ->
      let d = match a with Sleep d -> max d 0 | _ -> 0 in
      schedule r (r.clock + d) (fun () ->
          if alive r group then
            schedule r r.clock (fun () -> if alive r group then thread_body r group rest))
    | a :: rest ->
      exec r ~thread:(Some group) a;
      thread_body r group rest

  let run r ~until ~limit =
    let rec loop budget =
      match Q.min_binding_opt r.q with
      | None -> ()
      | Some (((time, _) as key), fn) ->
        if time > until then r.clock <- until
        else begin
          if budget <= 0 then raise Engine.Limit_exceeded;
          if compare key r.last <= 0 then failwith "reference keys not increasing";
          r.last <- key;
          r.q <- Q.remove key r.q;
          r.logical <- r.logical + 1;
          r.clock <- time;
          fn ();
          loop (budget - 1)
        end
    in
    loop limit

  let outcome prog slices =
    let r =
      { clock = 0; seq = 0; q = Q.empty; dead = []; logical = 0; last = (-1, -1);
        log = []; timers = [] }
    in
    List.iter (exec r ~thread:None) prog;
    let slices =
      List.map
        (fun (delta, limit) ->
          let tripped =
            match run r ~until:(r.clock + delta) ~limit with
            | () -> false
            | exception Engine.Limit_exceeded -> true
          in
          (tripped, r.clock, r.logical))
        slices
    in
    { log = List.rev r.log; slices }
end

let engine_outcome prog slices =
  let eng = Engine.create () in
  for _ = 0 to 2 do ignore (Engine.new_group eng) done;
  let log = ref [] and timers = ref [] in
  let rec exec ~thread a =
    match a with
    | Log id -> log := (Engine.now eng, id) :: !log
    | After (d, group, body) ->
      Engine.after eng ?group d (fun () -> List.iter (exec ~thread:false) body)
    | At (d, group, body) ->
      Engine.at eng ?group (Engine.now eng + d) (fun () -> List.iter (exec ~thread:false) body)
    | Timer (d, body) ->
      timers := !timers @ [ Engine.timer eng d (fun () -> List.iter (exec ~thread:false) body) ]
    | Cancel k -> Option.iter (fun cancel -> cancel ()) (List.nth_opt !timers k)
    | Spawn (group, body) ->
      Engine.spawn eng ?group ~name:"t" (fun () -> List.iter (exec ~thread:true) body)
    | Sleep d -> if thread then Engine.sleep eng d
    | Yield -> if thread then Engine.yield eng
    | Kill g -> Engine.kill_group eng g
  in
  List.iter (exec ~thread:false) prog;
  let slices =
    List.map
      (fun (delta, limit) ->
        let tripped =
          match Engine.run ~until:(Engine.now eng + delta) ~limit eng with
          | () -> false
          | exception Engine.Limit_exceeded -> true
        in
        (tripped, Engine.now eng, Engine.dispatched eng + Engine.elided eng))
      slices
  in
  check_no_failures eng;
  { log = List.rev !log; slices }

let gen_program =
  let open QCheck.Gen in
  let delay = int_range 0 5 and group = opt (int_range 0 2) in
  let leaf =
    [ (3, return (Log 0)); (3, map (fun d -> Sleep d) delay); (2, return Yield);
      (1, map (fun g -> Kill g) (int_range 0 2)); (1, map (fun k -> Cancel k) (int_range 0 3)) ]
  in
  let rec acts depth = list_size (int_range 0 4) (act depth)
  and act depth =
    if depth = 0 then frequency leaf
    else
      let body = acts (depth - 1) in
      frequency
        (leaf
        @ [ (2, map3 (fun d g b -> After (d, g, b)) delay group body);
            (1, map3 (fun d g b -> At (d, g, b)) (int_range (-2) 5) group body);
            (1, map2 (fun d b -> Timer (d, b)) delay body);
            (3, map2 (fun g b -> Spawn (g, b)) group body) ])
  in
  (* Number the logs so that each names one program point. *)
  let next = ref 0 in
  let rec number = function
    | Log _ -> incr next; Log !next
    | After (d, g, b) -> After (d, g, List.map number b)
    | At (d, g, b) -> At (d, g, List.map number b)
    | Timer (d, b) -> Timer (d, List.map number b)
    | Spawn (g, b) -> Spawn (g, List.map number b)
    | (Cancel _ | Sleep _ | Yield | Kill _) as a -> a
  in
  let slices = list_size (int_range 1 6) (pair (int_range 0 12) (int_range 0 25)) in
  map2 (fun prog slices -> next := 0; (List.map number prog, slices)) (acts 3) slices

let rec show_act = function
  | Log id -> Printf.sprintf "log%d" id
  | After (d, g, b) -> Printf.sprintf "after(%d,%s,%s)" d (show_group g) (show_acts b)
  | At (d, g, b) -> Printf.sprintf "at(%+d,%s,%s)" d (show_group g) (show_acts b)
  | Timer (d, b) -> Printf.sprintf "timer(%d,%s)" d (show_acts b)
  | Cancel k -> Printf.sprintf "cancel%d" k
  | Spawn (g, b) -> Printf.sprintf "spawn(%s,%s)" (show_group g) (show_acts b)
  | Sleep d -> Printf.sprintf "sleep%d" d
  | Yield -> "yield"
  | Kill g -> Printf.sprintf "kill%d" g

and show_group = function None -> "-" | Some g -> string_of_int g
and show_acts b = "[" ^ String.concat ";" (List.map show_act b) ^ "]"

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine order, counts and limit match a heap-only reference"
    ~count:500
    (QCheck.make gen_program ~print:(fun (prog, slices) ->
         show_acts prog ^ " slices "
         ^ String.concat " " (List.map (fun (d, l) -> Printf.sprintf "%d/%d" d l) slices)))
    (fun (prog, slices) -> engine_outcome prog slices = Reference.outcome prog slices)

(* ------------------------------------------------------------------ *)
(* Cores *)

let test_cores_parallel () =
  let eng = Engine.create () in
  let pool = Cores.create eng 4 in
  let done_at = ref [] in
  for i = 1 to 4 do
    Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
        Cores.work pool (Time.ms 10);
        done_at := Engine.now eng :: !done_at)
  done;
  Engine.run eng;
  check_no_failures eng;
  List.iter
    (fun t -> Alcotest.(check int) "all finish in parallel" (Time.ms 10) t)
    !done_at

let test_cores_queueing () =
  let eng = Engine.create () in
  let pool = Cores.create eng 2 in
  let finished = ref [] in
  for i = 1 to 4 do
    Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
        Cores.work pool (Time.ms 10);
        finished := (i, Engine.now eng) :: !finished)
  done;
  Engine.run eng;
  check_no_failures eng;
  let times = List.rev_map snd !finished in
  Alcotest.(check (list int))
    "two waves on two cores"
    [ Time.ms 10; Time.ms 10; Time.ms 20; Time.ms 20 ]
    (List.sort compare times)

let test_cores_zero_work () =
  let eng = Engine.create () in
  let pool = Cores.create eng 1 in
  Engine.spawn eng ~name:"w" (fun () -> Cores.work pool 0);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "no time passes" 0 (Engine.now eng)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "sim.pheap",
      [
        Alcotest.test_case "ordering" `Quick test_pheap_order;
        qcheck prop_pheap_sorted;
        Alcotest.test_case "growth reuses slots" `Quick test_pheap_growth_reuse;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "outputs pinned" `Quick test_rng_outputs_pinned;
        qcheck prop_rng_int_bounds;
        qcheck prop_rng_shuffle_permutes;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "timer order" `Quick test_timers_fire_in_order;
        Alcotest.test_case "same-instant fifo" `Quick test_same_instant_fifo;
        Alcotest.test_case "thread sleep" `Quick test_thread_sleep;
        Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
        Alcotest.test_case "waker idempotent" `Quick test_waker_idempotent;
        Alcotest.test_case "kill group" `Quick test_kill_group;
        Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
        Alcotest.test_case "run until" `Quick test_run_until;
        Alcotest.test_case "spawn inherits group" `Quick test_spawn_inherits_group;
        Alcotest.test_case "failure recorded" `Quick test_failure_recorded;
        Alcotest.test_case "event limit" `Quick test_limit;
        Alcotest.test_case "event limit counts elided sleeps" `Quick test_limit_sleep;
        Alcotest.test_case "sleep beyond until" `Quick test_sleep_beyond_until;
        Alcotest.test_case "sleep same-instant order" `Quick test_sleep_same_instant_order;
        Alcotest.test_case "sleep after self-kill" `Quick test_sleep_after_self_kill;
        Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
        qcheck prop_engine_deterministic;
        Alcotest.test_case "run until before now" `Quick test_run_until_before_now;
        qcheck prop_engine_matches_reference;
      ] );
    ( "sim.cores",
      [
        Alcotest.test_case "parallel" `Quick test_cores_parallel;
        Alcotest.test_case "queueing" `Quick test_cores_queueing;
        Alcotest.test_case "zero work" `Quick test_cores_zero_work;
      ] );
  ]
