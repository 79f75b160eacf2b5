(* Tests for the simulation substrate: heap, int table, engine, ivar,
   mailbox, waitq, rng, stats. *)

open Ll_sim

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Heap --- *)

let test_heap_order () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some x ->
      out := x :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (List.rev !out)

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  checkb "empty" true (Heap.pop h = None);
  Heap.push h 1;
  check "len" 1 (Heap.length h);
  Heap.clear h;
  check "cleared" 0 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

(* --- Engine --- *)

let test_clock_advances () =
  let times = ref [] in
  Engine.run (fun () ->
      times := Engine.now () :: !times;
      Engine.sleep (Engine.us 5);
      times := Engine.now () :: !times;
      Engine.sleep (Engine.ms 1);
      times := Engine.now () :: !times);
  Alcotest.(check (list int))
    "timestamps" [ 0; 5_000; 1_005_000 ] (List.rev !times)

let test_spawn_ordering () =
  (* Fibers scheduled at the same instant run in spawn order. *)
  let order = ref [] in
  Engine.run (fun () ->
      Engine.spawn (fun () -> order := 1 :: !order);
      Engine.spawn (fun () -> order := 2 :: !order);
      Engine.spawn (fun () -> order := 3 :: !order));
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !order)

let test_determinism () =
  let run () =
    let trace = ref [] in
    Engine.run ~seed:99 (fun () ->
        let rng = Engine.random_state () in
        for _ = 1 to 5 do
          let d = Random.State.int rng 100 in
          Engine.spawn (fun () ->
              Engine.sleep (Engine.us d);
              trace := (Engine.now (), d) :: !trace)
        done);
    !trace
  in
  Alcotest.(check bool) "identical traces" true (run () = run ())

(* One workload with a 6-way tie at a single instant: the order in which
   the tied fibers run is the schedule under test. *)
let tie_trace ?(perturb = false) seed =
  let trace = ref [] in
  Engine.run ~seed ~perturb (fun () ->
      for i = 1 to 6 do
        Engine.spawn (fun () ->
            Engine.sleep (Engine.us 10);
            trace := i :: !trace)
      done);
  List.rev !trace

let test_perturb_deterministic () =
  (* Same seed -> same tie-breaking; unperturbed -> spawn (FIFO) order. *)
  Alcotest.(check (list int))
    "unperturbed is FIFO" [ 1; 2; 3; 4; 5; 6 ] (tie_trace 1);
  for seed = 1 to 5 do
    Alcotest.(check (list int))
      "perturbed run reproduces"
      (tie_trace ~perturb:true seed)
      (tie_trace ~perturb:true seed)
  done

let test_perturb_explores () =
  (* Across a handful of seeds, at least one must deviate from FIFO and
     two seeds must disagree — otherwise the perturbation is a no-op. *)
  let traces = List.init 8 (fun s -> tie_trace ~perturb:true (s + 1)) in
  checkb "some schedule differs from FIFO" true
    (List.exists (fun t -> t <> [ 1; 2; 3; 4; 5; 6 ]) traces);
  checkb "seeds explore distinct schedules" true
    (List.exists (fun t -> t <> List.hd traces) traces);
  List.iter
    (fun t ->
      Alcotest.(check (list int))
        "every schedule is a permutation" [ 1; 2; 3; 4; 5; 6 ]
        (List.sort compare t))
    traces

let test_parallel_domains () =
  (* Engine state is domain-local: independent simulations may run
     concurrently on separate domains, each fully deterministic. *)
  let sim seed =
    let acc = ref 0 in
    Engine.run ~seed ~perturb:true (fun () ->
        for i = 1 to 50 do
          Engine.spawn (fun () ->
              Engine.sleep (Engine.us (Random.State.int (Engine.random_state ()) 100));
              acc := !acc + i)
        done);
    (!acc, Engine.events_executed (), Engine.master_seed ())
  in
  let expected = List.init 4 (fun i -> sim (i + 1)) in
  let domains = List.init 4 (fun i -> Domain.spawn (fun () -> sim (i + 1))) in
  let got = List.map Domain.join domains in
  List.iteri
    (fun i ((a, e, s), (a', e', s')) ->
      check "sum matches" a a';
      check "event count matches" e e';
      check "seed recorded" (i + 1) s;
      check "seed recorded in domain" (i + 1) s')
    (List.combine expected got)

let test_until () =
  let reached = ref false in
  Engine.run ~until:(Engine.ms 1) (fun () ->
      Engine.sleep (Engine.ms 10);
      reached := true);
  checkb "not reached past until" false !reached

let test_exception_propagates () =
  let boom () =
    Engine.run (fun () ->
        Engine.spawn (fun () ->
            Engine.sleep 10;
            failwith "boom"))
  in
  (match boom () with
  | () -> Alcotest.fail "expected exception"
  | exception Engine.Fiber_failure (_, Failure m) ->
    Alcotest.(check string) "message" "boom" m
  | exception e -> raise e);
  (* The engine must be usable again after an aborted run. *)
  Engine.run (fun () -> Engine.sleep 1)

let test_wake_once () =
  Engine.run (fun () ->
      let woken = ref 0 in
      Engine.spawn (fun () ->
          let v =
            Engine.suspend (fun w ->
                Engine.after 10 (fun () ->
                    if Engine.wake w 1 then incr woken);
                Engine.after 20 (fun () ->
                    if Engine.wake w 2 then incr woken))
          in
          Alcotest.(check int) "first wake wins" 1 v);
      Engine.sleep 100;
      Alcotest.(check int) "woken once" 1 !woken)

(* [suspend_with register v] hands [register] its waker and [v], for
   immediate values too, and a plain [suspend] after it runs its own
   register function, holding no value of the earlier call. *)
let test_suspend_with () =
  let held = Weak.create 1 in
  Engine.run (fun () ->
      let echo w v = ignore (Engine.wake w v : bool) in
      checkb "unit" true (Engine.suspend_with echo () = ());
      check "zero" 0 (Engine.suspend_with echo 0);
      checkb "false" false (Engine.suspend_with echo false);
      check "int" 7 (Engine.suspend_with echo 7);
      Alcotest.(check string) "block" "v" (Engine.suspend_with echo "v");
      let seen = ref 0 in
      check "waker and argument" 3
        (Engine.suspend_with
           (fun w n ->
             seen := n;
             Engine.after 5 (fun () -> ignore (Engine.wake w (n + 1) : bool)))
           2);
      check "register saw its argument" 2 !seen;
      let v = Bytes.create 64 in
      Weak.set held 0 (Some v);
      ignore (Engine.suspend_with (fun w _ -> echo w ()) v : unit);
      check "plain suspend after suspend_with" 11
        (Engine.suspend (fun w -> echo w 11));
      Gc.full_major ();
      checkb "plain suspend dropped the earlier argument" false
        (Weak.check held 0))

(* --- Ivar --- *)

let test_ivar_basic () =
  Engine.run (fun () ->
      let iv = Ivar.create () in
      checkb "empty" false (Ivar.is_full iv);
      let got = ref [] in
      for i = 0 to 2 do
        Engine.spawn (fun () ->
            (* Bind before consing: the read suspends, and [!got] must be
               re-read after resumption. *)
            let v = Ivar.read iv in
            got := (i, v) :: !got)
      done;
      Engine.after (Engine.us 3) (fun () -> Ivar.fill iv 42);
      Engine.sleep (Engine.us 10);
      check "all readers woken" 3 (List.length !got);
      checkb "all read 42" true (List.for_all (fun (_, v) -> v = 42) !got);
      Alcotest.check_raises "double fill refused"
        (Invalid_argument "Ivar.fill: already full") (fun () -> Ivar.fill iv 1))

let test_ivar_timeout () =
  Engine.run (fun () ->
      let iv = Ivar.create () in
      let r = Ivar.read_timeout iv ~timeout:(Engine.us 5) in
      checkb "timed out" true (r = None);
      Ivar.fill iv 7;
      checkb "filled now" true
        (Ivar.read_timeout iv ~timeout:(Engine.us 1) = Some 7))

(* --- Mailbox --- *)

let test_mailbox_fifo () =
  Engine.run (fun () ->
      let mb = Mailbox.create () in
      List.iter (Mailbox.send mb) [ 1; 2; 3 ];
      check "fifo 1" 1 (Mailbox.recv mb);
      check "fifo 2" 2 (Mailbox.recv mb);
      check "fifo 3" 3 (Mailbox.recv mb))

let test_mailbox_blocking_receivers () =
  Engine.run (fun () ->
      let mb = Mailbox.create () in
      let got = ref [] in
      for i = 0 to 1 do
        Engine.spawn (fun () ->
            let m = Mailbox.recv mb in
            got := (i, m) :: !got)
      done;
      Engine.after 5 (fun () ->
          Mailbox.send mb "a";
          Mailbox.send mb "b");
      Engine.sleep 20;
      (* Receivers are served in blocking order. *)
      Alcotest.(check (list (pair int string)))
        "each receiver one message"
        [ (0, "a"); (1, "b") ]
        (List.sort compare !got))

let test_mailbox_timeout_then_send () =
  (* A waiter whose timeout fired must not swallow a later message. *)
  Engine.run (fun () ->
      let mb = Mailbox.create () in
      let r1 = Mailbox.recv_timeout mb ~timeout:5 in
      Alcotest.(check bool) "timed out" true (r1 = None);
      Mailbox.send mb 9;
      check "message preserved" 9 (Mailbox.recv mb))

(* Timed receives on an idle mailbox: each expired receiver is dropped
   at a later park, so the slab's live nodes stay bounded, behind a
   receiver that never times out as well as on their own. *)
let test_mailbox_timed_receivers_bounded () =
  Engine.run (fun () ->
      let mb = Mailbox.create () in
      let spin () =
        let live0 = Slab.in_use () in
        for _ = 1 to 1000 do
          ignore (Mailbox.recv_timeout mb ~timeout:(Engine.us 1) : int option)
        done;
        Slab.in_use () - live0
      in
      Alcotest.(check bool) "alone: bounded" true (spin () <= 1);
      let got = ref 0 in
      Engine.spawn (fun () -> got := Mailbox.recv mb);
      Engine.yield ();
      Alcotest.(check bool) "behind a live receiver: bounded" true
        (spin () <= 16);
      Mailbox.send mb 4;
      Engine.yield ();
      check "the live receiver still gets the message" 4 !got)

(* --- Waitq --- *)

let test_waitq () =
  Engine.run (fun () ->
      let wq = Waitq.create () in
      let flag = ref false in
      let through = ref false in
      Engine.spawn (fun () ->
          Waitq.await wq (fun () -> !flag);
          through := true);
      Engine.sleep 5;
      checkb "blocked" false !through;
      (* broadcast without predicate change: must keep waiting *)
      Waitq.broadcast wq;
      Engine.sleep 5;
      checkb "still blocked" false !through;
      flag := true;
      Waitq.broadcast wq;
      Engine.sleep 5;
      checkb "released" true !through)

let test_waitq_timeout () =
  Engine.run (fun () ->
      let wq = Waitq.create () in
      let ok = Waitq.await_timeout wq ~timeout:(Engine.us 5) (fun () -> false) in
      checkb "predicate false on timeout" false ok)

(* A timed-out waiter is dropped when the queue is next parked on, not
   left until a broadcast that may never come: a waiter that times out
   over and over on an idle queue keeps it at one waiter. Behind a waiter
   that stays parked, timed-out ones are swept in bulk. *)
let test_waitq_timeouts_do_not_accumulate () =
  Engine.run (fun () ->
      let wq = Waitq.create () in
      for _ = 1 to 1000 do
        ignore
          (Waitq.await_timeout wq ~timeout:(Engine.us 5) (fun () -> false))
      done;
      check "one timed-out waiter left" 1 (Waitq.waiters wq);
      let released = ref false in
      Engine.spawn (fun () -> Waitq.await wq (fun () -> !released));
      Engine.yield ();
      for _ = 1 to 1000 do
        ignore
          (Waitq.await_timeout wq ~timeout:(Engine.us 5) (fun () -> false))
      done;
      checkb "bounded behind a parked waiter" true (Waitq.waiters wq <= 10);
      released := true;
      Waitq.broadcast wq;
      Engine.yield ();
      check "nothing left after the broadcast" 0 (Waitq.waiters wq))

(* A finished run keeps nothing alive: a value reachable only from
   fibers still parked on a Waitq and on an Ivar when the run ends is
   garbage once [Engine.run] returns. *)
let test_finished_run_released () =
  let held = Weak.create 8 in
  let hold slot =
    let v = Bytes.create 64 in
    Weak.set held slot (Some v);
    v
  in
  let park slot wait =
    Engine.spawn (fun () ->
        let v = hold slot in
        wait ();
        ignore (Sys.opaque_identity v))
  in
  Engine.run (fun () ->
      let wq = Waitq.create () and iv = Ivar.create () in
      park 0 (fun () -> Waitq.await wq (fun () -> false));
      park 1 (fun () -> ignore (Ivar.read iv : unit)));
  (* Pending [call_at_with] events, in the wheel and in the overflow
     heap: one holds its value only as the argument, one only in its
     function. *)
  Engine.run ~until:(Engine.ms 1) (fun () ->
      Engine.call_at_with (Engine.ms 2) ignore (hold 2);
      let v = hold 3 in
      Engine.call_at_with (Engine.sec 100)
        (fun () -> ignore (Sys.opaque_identity v))
        ());
  (* A run whose last suspension stashed a value that nothing else
     holds. *)
  Engine.run (fun () ->
      ignore
        (Engine.suspend_with (fun w _ -> ignore (Engine.wake w () : bool)) (hold 7)
          : unit));
  Gc.full_major ();
  checkb "waitq-parked fiber released" false (Weak.check held 0);
  checkb "ivar-parked fiber released" false (Weak.check held 1);
  checkb "call_at_with argument released" false (Weak.check held 2);
  checkb "call_at_with function released" false (Weak.check held 3);
  checkb "suspend_with argument released" false (Weak.check held 7);
  (* A fired [call_at_with] cell drops its function at once, before the
     run ends. *)
  Engine.run (fun () ->
      let arm slot =
        let v = hold slot in
        Engine.call_at_with 1 (fun () -> ignore (Sys.opaque_identity v)) ()
      in
      arm 6;
      Engine.sleep 10;
      Gc.full_major ();
      checkb "fired call_at_with's function released" false
        (Weak.check held 6));
  (* A run that grows both pools: 5 000 pending events and 5 000 queued
     messages, the last of each holding a value past the initial
     capacities (1 024 cells, 256 slab nodes). *)
  let cells = ref 0 and nodes = ref 0 in
  Engine.run ~until:(Engine.ms 1) (fun () ->
      let mb = Mailbox.create () in
      for i = 1 to 5_000 do
        let last = i = 5_000 in
        Engine.call_at_with (Engine.ms 2) ignore
          (if last then hold 4 else Bytes.empty);
        Mailbox.send mb (if last then hold 5 else Bytes.empty)
      done;
      cells := Engine.pending_events ();
      nodes := Slab.in_use ());
  checkb "grew the cell pool" true (!cells >= 5_000);
  checkb "grew the slab" true (!nodes >= 5_000 && Slab.capacity () >= 5_000);
  (* A later small run starts clean on the grown pools. *)
  let order = ref [] in
  Engine.run (fun () ->
      Engine.call_after 5 (fun () -> order := 2 :: !order);
      Engine.call_at_with 5 (fun i -> order := i :: !order) 3;
      Engine.call_after 1 (fun () -> order := 1 :: !order));
  Alcotest.(check (list int)) "small run after growth" [ 1; 2; 3 ]
    (List.rev !order);
  check "small run leaves no events" 0 (Engine.pending_events ());
  check "small run leaves no slab nodes" 0 (Slab.in_use ());
  Gc.full_major ();
  checkb "grown pool's payload released" false (Weak.check held 4);
  checkb "grown slab's payload released" false (Weak.check held 5)

(* [call_at_with f v] takes [call_at (fun () -> f v)]'s place in the
   schedule. Each program schedules events at instants that tie, in the
   wheel's three levels and its overflow heap, and some events schedule
   a child; the program that uses [call_at_with] for a random subset
   must run in the order of the one that uses [call_at] throughout, with
   and without perturbed tie-breaking. *)
let prop_call_at_with_order =
  let bases = [| 0; 2_048; 5_000_000; 10_000_000_000 |] in
  QCheck.Test.make ~name:"call_at_with keeps call_at's order" ~count:200
    QCheck.(
      pair small_nat
        (list
           (quad (int_bound 3) (int_bound 3) bool (option (int_bound 2)))))
    (fun (seed, prog) ->
      let trace ~perturb ~mixed =
        let out = ref [] in
        Engine.run ~seed ~perturb (fun () ->
            let record id = out := (id, Engine.now ()) :: !out in
            let schedule ~with_ at id f =
              if mixed && with_ then Engine.call_at_with at f id
              else Engine.call_at at (fun () -> f id)
            in
            List.iteri
              (fun id (cls, small, with_, child) ->
                let fire id =
                  record id;
                  match child with
                  | Some d ->
                    schedule ~with_:(not with_) (Engine.now () + d)
                      (1_000 + id) record
                  | None -> ()
                in
                schedule ~with_ (bases.(cls) + small) id fire)
              prog);
        List.rev !out
      in
      List.for_all
        (fun perturb ->
          trace ~perturb ~mixed:true = trace ~perturb ~mixed:false)
        [ false; true ])

(* A callback waker runs its function on a fresh event with the wake
   value, is re-armed before it runs, and can be woken again. *)
let test_callback_waker () =
  Engine.run (fun () ->
      let got = ref [] in
      let rec w =
        lazy
          (Engine.callback_waker (fun v ->
               let fired = Engine.is_woken (Lazy.force w) in
               got := (v, Engine.now (), fired) :: !got))
      in
      let w = Lazy.force w in
      checkb "first wake" true (Engine.wake w 1);
      checkb "second wake before it runs" false (Engine.wake w 2);
      checkb "fired" true (Engine.is_woken w);
      check "not run inline" 0 (List.length !got);
      Engine.sleep 10;
      checkb "re-armed" false (Engine.is_woken w);
      checkb "wake again" true (Engine.wake w 3);
      Engine.yield ();
      Alcotest.(check (list (triple int int bool)))
        "runs once per wake, re-armed"
        [ (1, 0, false); (3, 10, false) ]
        (List.rev !got))

(* --- Rng --- *)

let test_exponential_mean () =
  let rng = Rng.create ~seed:5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:100.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean within 5%" true (mean > 95.0 && mean < 105.0)

let test_zipf_bounds_and_skew () =
  let rng = Rng.create ~seed:6 in
  let g = Rng.Zipf.create rng ~n:1000 ~theta:0.99 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let k = Rng.Zipf.next g in
    checkb "in range" true (k >= 0 && k < 1000);
    counts.(k) <- counts.(k) + 1
  done;
  (* Hottest key should be much hotter than the median key. *)
  let hottest = Array.fold_left max 0 counts in
  checkb "skewed" true (hottest > 50_000 / 100)

(* --- Stats --- *)

let test_reservoir_percentiles () =
  let r = Stats.Reservoir.create () in
  for i = 1 to 100 do
    Stats.Reservoir.add r (i * 1000)
  done;
  Alcotest.(check (float 0.1)) "mean" 50.5 (Stats.Reservoir.mean_us r);
  Alcotest.(check (float 0.5)) "p50" 50.5 (Stats.Reservoir.percentile_us r 50.0);
  Alcotest.(check (float 1.5)) "p99" 99.0 (Stats.Reservoir.percentile_us r 99.0);
  Alcotest.(check (float 0.01)) "min" 1.0 (Stats.Reservoir.min_us r);
  Alcotest.(check (float 0.01)) "max" 100.0 (Stats.Reservoir.max_us r)

let test_reservoir_cdf () =
  let r = Stats.Reservoir.create () in
  for i = 1 to 1000 do
    Stats.Reservoir.add r i
  done;
  let cdf = Stats.Reservoir.cdf r ~points:10 in
  check "10 points" 10 (List.length cdf);
  let _, last_pct = List.nth cdf 9 in
  Alcotest.(check (float 0.01)) "ends at 100%" 100.0 last_pct

let test_timeline () =
  let tl = Stats.Timeline.create ~bin:(Engine.ms 1) in
  for i = 0 to 99 do
    Stats.Timeline.record tl ~at:(i * Engine.us 10)
  done;
  check "total" 100 (Stats.Timeline.total tl);
  match Stats.Timeline.series tl with
  | [ (_, rate) ] -> Alcotest.(check (float 1.0)) "rate" 100_000.0 rate
  | l -> Alcotest.failf "expected one bin, got %d" (List.length l)

let test_reservoir_merge () =
  let a = Stats.Reservoir.create () and b = Stats.Reservoir.create () in
  List.iter (Stats.Reservoir.add a) [ 1000; 2000 ];
  List.iter (Stats.Reservoir.add b) [ 3000; 4000 ];
  let m = Stats.Reservoir.merge [ a; b ] in
  check "count" 4 (Stats.Reservoir.count m);
  Alcotest.(check (float 0.01)) "mean" 2.5 (Stats.Reservoir.mean_us m)

let test_reservoir_stddev_and_clear () =
  let r = Stats.Reservoir.create () in
  List.iter (Stats.Reservoir.add r) [ 1000; 1000; 1000 ];
  Alcotest.(check (float 0.001)) "no spread" 0.0 (Stats.Reservoir.stddev_us r);
  Stats.Reservoir.clear r;
  check "cleared" 0 (Stats.Reservoir.count r);
  checkb "mean of empty is nan" true (Float.is_nan (Stats.Reservoir.mean_us r))

let test_timeline_multi_bin () =
  let tl = Stats.Timeline.create ~bin:(Engine.ms 1) in
  Stats.Timeline.record_n tl ~at:(Engine.us 500) ~n:10;
  Stats.Timeline.record_n tl ~at:(Engine.us 2_500) ~n:30;
  (match Stats.Timeline.series tl with
  | [ (t0, r0); (t1, r1) ] ->
    Alcotest.(check (float 1e-6)) "bin 0 time" 0.0 t0;
    Alcotest.(check (float 1.0)) "bin 0 rate" 10_000.0 r0;
    Alcotest.(check (float 1e-6)) "bin 2 time" 0.002 t1;
    Alcotest.(check (float 1.0)) "bin 2 rate" 30_000.0 r1
  | l -> Alcotest.failf "expected 2 bins, got %d" (List.length l));
  check "total" 40 (Stats.Timeline.total tl)

let test_at_clamps_past () =
  Engine.run (fun () ->
      Engine.sleep (Engine.us 10);
      let ran_at = ref (-1) in
      (* Scheduling in the past runs "now", never back in time. *)
      Engine.at 0 (fun () -> ran_at := Engine.now ());
      Engine.sleep 1;
      check "clamped to now" (Engine.us 10) !ran_at)

let test_sleep_until_past_is_yield () =
  Engine.run (fun () ->
      Engine.sleep (Engine.us 5);
      Engine.sleep_until 0;
      check "no time travel" (Engine.us 5) (Engine.now ()))

(* A fired timer's cell is freed before its callback runs, so a timer
   armed from that callback reuses the cell. The old token must then lose
   to the cell's new seq instead of cancelling the new timer. *)
let test_stale_token () =
  let fired = ref 0 in
  let t1 = ref Engine.no_timer and t2 = ref Engine.no_timer in
  let stale = ref true and live = ref false and pending = ref (-1) in
  Engine.run (fun () ->
      t1 :=
        Engine.timer_after 10 (fun () ->
            incr fired;
            t2 := Engine.timer_after 10 (fun () -> incr fired);
            stale := Engine.cancel !t1;
            live := Engine.cancel !t2;
            pending := Engine.pending_events ()));
  check "same cell" ((!t1 :> int) lsr 38) ((!t2 :> int) lsr 38);
  checkb "stale token loses" false !stale;
  checkb "live token wins" true !live;
  check "only the first fired" 1 !fired;
  check "nothing pending" 0 !pending

let test_rng_split_independence () =
  let a = Rng.create ~seed:1 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  checkb "streams differ" true (xs <> ys)

let prop_percentile_monotonic =
  QCheck.Test.make ~name:"percentiles are monotonic" ~count:100
    QCheck.(list_of_size (Gen.int_range 2 200) (int_range 0 1_000_000))
    (fun xs ->
      let r = Stats.Reservoir.create () in
      List.iter (Stats.Reservoir.add r) xs;
      let ps = [ 0.0; 10.0; 50.0; 90.0; 99.0; 100.0 ] in
      let vs = List.map (Stats.Reservoir.percentile_us r) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono vs)

(* --- Int_table --- *)

(* Random operations against a [Hashtbl] model. The table starts at 8
   slots and keys come from a pool of 48 (small ints and packed
   (a lsl 20) lor b pairs), so homes collide, the table grows several
   times, and removals land inside probe chains. *)
let prop_int_table_matches_model =
  let key k = if k < 24 then k else ((k - 24) lsl 20) lor (k mod 3) in
  QCheck.Test.make ~name:"int_table matches Hashtbl model" ~count:300
    QCheck.(list (triple (int_bound 3) (int_bound 47) small_nat))
    (fun ops ->
      let t = Int_table.create 1 in
      let m = Hashtbl.create 16 in
      let find k = Option.value (Hashtbl.find_opt m k) ~default:(-7) in
      let agree k = Int_table.find t k ~default:(-7) = find k in
      List.for_all
        (fun (op, k, v) ->
          let k = key k in
          let step_ok =
            match op with
            | 0 ->
              Int_table.set_value t (Int_table.slot t k ~absent:v) v;
              Hashtbl.replace m k v;
              true
            | 1 ->
              Int_table.remove t k;
              Hashtbl.remove m k;
              true
            | 2 ->
              (* Single-probe read-modify-write, as the fabric does. *)
              let s = Int_table.slot t k ~absent:(-1) in
              let old = Int_table.value t s in
              let expect = Option.value (Hashtbl.find_opt m k) ~default:(-1) in
              Int_table.set_value t s (max old v);
              Hashtbl.replace m k (max expect v);
              old = expect
            | _ -> true
          in
          step_ok
          && Int_table.length t = Hashtbl.length m
          && List.for_all (fun k -> agree (key k)) (List.init 48 Fun.id)
          && Int_table.find t (-1) ~default:(-7) = -7)
        ops)

let test_int_table_negative_key () =
  let t = Int_table.create 4 in
  Alcotest.check_raises "negative key rejected"
    (Invalid_argument "Int_table: negative key") (fun () ->
      ignore (Int_table.slot t (-3) ~absent:0));
  check "nothing inserted" 0 (Int_table.length t)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "pops sorted" `Quick test_heap_order;
          Alcotest.test_case "empty/clear" `Quick test_heap_empty;
        ]
        @ qc [ prop_heap_sorts ] );
      ( "int_tbl",
        [
          Alcotest.test_case "negative key rejected" `Quick
            test_int_table_negative_key;
        ]
        @ qc [ prop_int_table_matches_model ] );
      ( "engine",
        [
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "spawn order" `Quick test_spawn_ordering;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "perturbation deterministic per seed" `Quick
            test_perturb_deterministic;
          Alcotest.test_case "perturbation explores schedules" `Quick
            test_perturb_explores;
          Alcotest.test_case "parallel domain engines" `Quick
            test_parallel_domains;
          Alcotest.test_case "until bounds run" `Quick test_until;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "waker fires once" `Quick test_wake_once;
          Alcotest.test_case "suspend_with passes its argument" `Quick
            test_suspend_with;
          Alcotest.test_case "at clamps past times" `Quick test_at_clamps_past;
          Alcotest.test_case "sleep_until past is a yield" `Quick
            test_sleep_until_past_is_yield;
          Alcotest.test_case "stale cancel token loses to a reused cell"
            `Quick test_stale_token;
          Alcotest.test_case "callback waker is reusable" `Quick
            test_callback_waker;
          Alcotest.test_case "finished run is released" `Quick
            test_finished_run_released;
        ]
        @ qc [ prop_call_at_with_order ] );
      ( "ivar",
        [
          Alcotest.test_case "fill wakes all" `Quick test_ivar_basic;
          Alcotest.test_case "timeout" `Quick test_ivar_timeout;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking receivers" `Quick
            test_mailbox_blocking_receivers;
          Alcotest.test_case "timeout does not lose messages" `Quick
            test_mailbox_timeout_then_send;
          Alcotest.test_case "timed-out receivers do not accumulate" `Quick
            test_mailbox_timed_receivers_bounded;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "await/broadcast" `Quick test_waitq;
          Alcotest.test_case "await timeout" `Quick test_waitq_timeout;
          Alcotest.test_case "timed-out waiters do not accumulate" `Quick
            test_waitq_timeouts_do_not_accumulate;
        ] );
      ( "rng",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "zipf bounds and skew" `Quick
            test_zipf_bounds_and_skew;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independence;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_reservoir_percentiles;
          Alcotest.test_case "cdf" `Quick test_reservoir_cdf;
          Alcotest.test_case "timeline" `Quick test_timeline;
          Alcotest.test_case "merge" `Quick test_reservoir_merge;
          Alcotest.test_case "stddev and clear" `Quick
            test_reservoir_stddev_and_clear;
          Alcotest.test_case "timeline multi-bin" `Quick
            test_timeline_multi_bin;
        ]
        @ qc [ prop_percentile_monotonic ] );
    ]
