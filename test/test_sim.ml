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
let prop_pheap_sorted =
  QCheck.Test.make ~name:"pheap pops sorted by (time, seq)" ~count:200
    QCheck.(list (option small_nat))
    (fun ops ->
      let h = Pheap.create () in
      let model = ref [] and ok = ref true in
      List.iteri
        (fun seq op ->
          (match (op, !model) with
           | Some time, _ ->
             Pheap.push h ~time ~seq (time, seq, ());
             model := List.sort compare ((time, seq, ()) :: !model)
           | None, [] -> ()
           | None, m :: rest ->
             if Pheap.pop_value h <> m then ok := false;
             model := rest);
          let expect = match !model with [] -> max_int | (t, _, _) :: _ -> t in
          if Pheap.min_time h <> expect then ok := false)
        ops;
      !ok && pheap_drain h = !model)

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
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
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
      ] );
    ( "sim.cores",
      [
        Alcotest.test_case "parallel" `Quick test_cores_parallel;
        Alcotest.test_case "queueing" `Quick test_cores_queueing;
        Alcotest.test_case "zero work" `Quick test_cores_zero_work;
      ] );
  ]
