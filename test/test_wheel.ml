(* Scheduler equivalence: the engine's timer wheel must execute the exact
   event sequence of a reference scheduler. The engine's order contract is
   the total order (at, tie, seq) — seq is unique, so any correct
   scheduler produces one identical execution. The reference below is the
   pre-wheel engine: one boxed record and one dispatch closure per event
   in a binary heap, cancellation by tombstone. It implements the same
   primitives as [Engine], and we check the two agree two ways:

   - a randomized program generator (sleeps spanning every wheel level
     and the overflow heap, fiber timers, bare callbacks, nested spawns,
     spawns and in-place fiber starts from bare callbacks, suspend/wake,
     past-time clamping, cancellable timers racing cancellers, timed
     waits whose normal wake cancels the deadline)
     traced on both schedulers across many master seeds, with and
     without tie perturbation. Unperturbed wheel runs take the batched
     slot-drain path and the same-instant tie buckets force multi-cell
     batches, so this property also pins batched resumption — and
     cancellation mid-batch — to the reference schedule;

   - a small erwin-m cluster workload, which only runs on [Engine], must
     reproduce the statistics the reference heap recorded for it. *)

open Ll_sim

(* The primitives the program generator uses; [Engine] and [Ref] both
   provide them. *)
module type SCHED = sig
  type 'a waker
  type timer

  val now : unit -> Engine.time
  val sleep : Engine.time -> unit
  val sleep_until : Engine.time -> unit
  val spawn : ?name:string -> (unit -> unit) -> unit
  val start_now : ?name:string -> (unit -> unit) -> unit
  val at : Engine.time -> (unit -> unit) -> unit
  val after : Engine.time -> (unit -> unit) -> unit
  val call_after : Engine.time -> (unit -> unit) -> unit
  val suspend : ('a waker -> unit) -> 'a
  val wake : 'a waker -> 'a -> bool
  val timer_after : Engine.time -> (unit -> unit) -> timer
  val cancel : timer -> bool
  val arm_timeout : 'a waker -> Engine.time -> 'a -> unit
  val run : ?seed:int -> ?perturb:bool -> (unit -> unit) -> unit
  val events_executed : unit -> int
  val timers_cancelled : unit -> int
end

(* --- reference scheduler --- *)

module Ref : SCHED = struct
  type event = {
    at : int;
    tie : int;
    seq : int;
    fn : unit -> unit;
    mutable dead : bool;
  }

  let event_cmp a b =
    let c = Int.compare a.at b.at in
    if c <> 0 then c
    else
      let c = Int.compare a.tie b.tie in
      if c <> 0 then c else Int.compare a.seq b.seq

  (* A timer is the seq of its event; 0 is "none". *)
  type timer = int

  type 'a waker = {
    mutable fired : bool;
    resume : 'a -> unit;
    mutable deadline : timer;
  }

  let clock = ref 0
  let seqno = ref 0
  let executed = ref 0
  let cancelled = ref 0
  let perturb_rng = ref None
  let queue = Heap.create ~cmp:event_cmp

  (* seq -> pending cancellable timer *)
  let timers : (int, event) Hashtbl.t = Hashtbl.create 64

  type _ Effect.t +=
    | Sleep : int -> unit Effect.t
    | Suspend : ('a waker -> unit) -> 'a Effect.t

  let push at fn =
    let at = if at < !clock then !clock else at in
    incr seqno;
    let tie =
      match !perturb_rng with
      | None -> 0
      | Some prng -> Random.State.bits prng
    in
    let ev = { at; tie; seq = !seqno; fn; dead = false } in
    Heap.push queue ev;
    ev

  let exec f =
    let open Effect.Deep in
    match_with f ()
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sleep d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  ignore (push (!clock + d) (fun () -> continue k ())))
            | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  register
                    { fired = false; resume = continue k; deadline = 0 })
            | _ -> None);
      }

  let cancel tok =
    match Hashtbl.find_opt timers tok with
    | None -> false
    | Some ev ->
      ev.dead <- true;
      Hashtbl.remove timers tok;
      incr cancelled;
      true

  let wake w v =
    if w.fired then false
    else begin
      w.fired <- true;
      if w.deadline <> 0 then begin
        ignore (cancel w.deadline : bool);
        w.deadline <- 0
      end;
      ignore (push !clock (fun () -> w.resume v));
      true
    end

  let now () = !clock
  let sleep d = Effect.perform (Sleep (if d < 0 then 0 else d))
  let sleep_until t = sleep (t - !clock)
  let spawn ?name:_ f = ignore (push !clock (fun () -> exec f))
  let start_now ?name:_ f = exec f
  let suspend register = Effect.perform (Suspend register)
  let at t fn = ignore (push t (fun () -> exec fn))
  let after d fn = at (!clock + d) fn
  let call_after d fn = ignore (push (!clock + d) fn)

  let timer_after d fn =
    let ev = push (!clock + d) fn in
    Hashtbl.replace timers ev.seq ev;
    ev.seq

  let arm_timeout w d v =
    w.deadline <- timer_after d (fun () -> ignore (wake w v : bool))

  let events_executed () = !executed
  let timers_cancelled () = !cancelled

  (* The tie stream is seeded exactly as [Engine.run] seeds its own. *)
  let run ?(seed = 42) ?(perturb = false) main =
    clock := 0;
    seqno := 0;
    executed := 0;
    cancelled := 0;
    Heap.clear queue;
    Hashtbl.reset timers;
    perturb_rng :=
      if perturb then Some (Random.State.make [| seed; 0x7e27b6 |]) else None;
    at 0 main;
    let rec loop () =
      match Heap.pop queue with
      | None -> ()
      | Some ev when ev.dead -> loop ()
      | Some ev ->
        clock := ev.at;
        incr executed;
        Hashtbl.remove timers ev.seq;
        ev.fn ();
        loop ()
    in
    loop ()
end

(* --- randomized program equivalence --- *)

(* One trace entry per observable step: (sim time, actor id, step no). The
   list is in execution order, so comparing traces compares the schedule
   itself, not just final state. *)
type trace = (Engine.time * int * int) list

let delay rng =
  (* Spread delays across wheel levels: level 0 (ns..us), level 1 (us..ms),
     level 2 (ms..s), and past the level-2 cycle (~8.6 s) into the
     overflow heap. Bucket 4 forces same-instant ties. *)
  match Random.State.int rng 8 with
  | 0 -> 1 + Random.State.int rng 60
  | 1 -> Engine.us (1 + Random.State.int rng 100)
  | 2 -> Engine.ms (1 + Random.State.int rng 30)
  | 3 -> Engine.ms (100 * (1 + Random.State.int rng 9))
  | 4 -> Engine.us 10
  | 5 -> Engine.sec (1 + Random.State.int rng 5)
  | 6 -> Engine.sec (9 + Random.State.int rng 25)
  | _ -> 0

module Program (E : SCHED) = struct
  let run ~perturb ~seed : trace * int * int =
    let trace = ref [] in
    E.run ~seed ~perturb (fun () ->
        (* Program shape depends only on [seed], drawn from a private
           stream so it is identical across schedulers. *)
        let rng = Random.State.make [| seed; 0x7ee1 |] in
        let emit actor step = trace := (E.now (), actor, step) :: !trace in
        (* Sleeping fibers. *)
        for i = 1 to 12 do
          let steps = 1 + Random.State.int rng 4 in
          let delays = List.init steps (fun _ -> delay rng) in
          E.spawn (fun () ->
              List.iteri
                (fun j d ->
                  E.sleep d;
                  emit i j)
                delays)
        done;
        (* Fiber timers and bare callbacks, including nested re-arming. *)
        for i = 1 to 12 do
          let d = delay rng in
          let d2 = delay rng in
          match Random.State.int rng 3 with
          | 0 -> E.after d (fun () -> emit (100 + i) 0)
          | 1 -> E.call_after d (fun () -> emit (200 + i) 0)
          | _ ->
            E.call_after d (fun () ->
                emit (300 + i) 0;
                E.call_after d2 (fun () -> emit (300 + i) 1))
        done;
        (* Suspend/wake pair: a fiber parks, a timer wakes it. *)
        let d = delay rng in
        E.spawn (fun () ->
            let v =
              E.suspend (fun w ->
                  E.call_after d (fun () -> ignore (E.wake w 7)))
            in
            emit 400 v);
        (* Past-time clamping. *)
        E.spawn (fun () ->
            E.sleep (Engine.us 3);
            E.at 0 (fun () -> emit 500 0);
            E.sleep_until 0;
            emit 500 1);
        (* Nested spawn from a timer context. *)
        E.after (delay rng) (fun () ->
            emit 600 0;
            E.spawn (fun () ->
                E.sleep (delay rng);
                emit 600 1));
        (* Cancellable timers racing cancellers. The cancel outcome — did
           the cancel win, or had the timer already fired? — is part of
           the trace, so both schedulers must agree on every race,
           including same-instant ones (bucket-4 delays make d = dc
           common): a same-time later-seq timer is still pending when the
           canceller runs and must be cancellable under both. *)
        for i = 1 to 12 do
          let d = delay rng in
          let dc = delay rng in
          let tok = E.timer_after d (fun () -> emit (700 + i) 0) in
          match Random.State.int rng 4 with
          | 0 ->
            E.call_after dc (fun () ->
                emit (700 + i) (if E.cancel tok then 1 else 2))
          | 1 ->
            (* double cancel: the second must lose under both schedulers *)
            E.call_after dc (fun () ->
                let a = E.cancel tok in
                let b = E.cancel tok in
                emit (700 + i) ((if a then 1 else 2) + if b then 10 else 20))
          | 2 -> () (* timer just fires *)
          | _ ->
            E.spawn (fun () ->
                E.sleep dc;
                emit (700 + i) (if E.cancel tok then 3 else 4))
        done;
        (* Spawns and in-place fiber starts from bare callbacks: the
           spawned fiber starts on its own event after the callback; the
           started one runs at once, up to its first sleep, and the
           callback then carries on. *)
        for i = 1 to 6 do
          let d = delay rng in
          let d2 = delay rng in
          E.call_after d (fun () ->
              emit (900 + i) 0;
              E.spawn (fun () ->
                  emit (900 + i) 1;
                  E.sleep d2;
                  emit (900 + i) 2);
              E.start_now (fun () ->
                  emit (950 + i) 0;
                  E.sleep d2;
                  emit (950 + i) 1);
              emit (900 + i) 3)
        done;
        (* Timed waits: a message racing a timeout, the shape of
           [Mailbox.recv_timeout]. A normal wake cancels the deadline
           cell; a timeout fires it. Either way the observable value and
           the executed-event count must match the reference. *)
        for i = 1 to 6 do
          let dmsg = delay rng in
          let dto = delay rng in
          let waiter = ref None and sent = ref None in
          E.call_after dmsg (fun () ->
              match !waiter with
              | Some w -> ignore (E.wake w (Some i) : bool)
              | None -> sent := Some i);
          E.spawn (fun () ->
              let got =
                match !sent with
                | Some v -> Some v
                | None ->
                  E.suspend (fun w ->
                      waiter := Some w;
                      E.arm_timeout w dto None)
              in
              emit (800 + i) (Option.value got ~default:(-1)))
        done);
    (List.rev !trace, E.events_executed (), E.timers_cancelled ())
end

module On_ref = Program (Ref)
module On_wheel = Program (struct
  include Engine

  let run ?seed ?perturb main = Engine.run ?seed ?perturb main
end)

let test_equivalence ~perturb () =
  for seed = 1 to 100 do
    let th, eh, ch = On_ref.run ~perturb ~seed in
    let tw, ew, cw = On_wheel.run ~perturb ~seed in
    if th <> tw then begin
      let len = List.length in
      List.iteri
        (fun i ((ta, aa, sa) as a) ->
          match List.nth_opt tw i with
          | Some b when a = b -> ()
          | Some (tb, ab, sb) ->
            Alcotest.failf
              "seed %d: traces diverge at step %d: heap (%d,%d,%d) vs wheel \
               (%d,%d,%d)"
              seed i ta aa sa tb ab sb
          | None ->
            Alcotest.failf "seed %d: wheel trace shorter (%d vs %d)" seed
              (len tw) (len th))
        th;
      Alcotest.failf "seed %d: wheel trace longer (%d vs %d)" seed (len tw)
        (len th)
    end;
    if eh <> ew then
      Alcotest.failf "seed %d: events_executed heap=%d wheel=%d" seed eh ew;
    if ch <> cw then
      Alcotest.failf "seed %d: timers_cancelled heap=%d wheel=%d" seed ch cw
  done

(* --- cluster workload equivalence --- *)

(* A full erwin-m append run exercises the entire stack (fabric hops,
   mailboxes, timeouts, batching) on top of the scheduler. The protocol
   code calls [Engine] directly, so the reference cannot host it; instead
   the wheel must reproduce, exactly, the statistics this workload
   produced on the reference heap scheduler. A deliberate schedule change
   moves these together with bench/ref/figures_quick.csv and re-records
   both. A change that only drops events that did nothing observable,
   such as wakes that merely re-suspended, moves [events executed]
   alone: re-record it in its own commit and leave the other five. *)
let heap_reference =
  (567, 0x1.a7ebf9a0e1bc3p+2, 0x1.dc86594af4f0dp+2, 7382, 612, 35269)

let test_cluster_equivalence () =
  let count, mean, p99, msgs, gp =
    Ll_workload.Runner.in_sim ~seed:42 (fun () ->
        let cfg = Lazylog.Config.default in
        let cluster = Lazylog.Erwin_m.create ~cfg () in
        let r =
          Ll_workload.Runner.append_workload ~seed:7 ~clients:4 ~size:512
            ~warmup:(Engine.ms 2)
            ~log_factory:(fun () -> Lazylog.Erwin_m.client cluster)
            ~rate:20_000.0 ~duration:(Engine.ms 30) ()
        in
        let lat = r.Ll_workload.Runner.latency in
        ( Stats.Reservoir.count lat,
          Stats.Reservoir.mean_us lat,
          Stats.Reservoir.percentile_us lat 99.0,
          Ll_net.Fabric.messages_sent cluster.Lazylog.Erwin_common.fabric,
          cluster.Lazylog.Erwin_common.stable_gp ))
  in
  let count_h, mean_h, p99_h, msgs_h, gp_h, events_h = heap_reference in
  Alcotest.(check int) "latency samples" count_h count;
  Alcotest.(check (float 0.0)) "mean latency" mean_h mean;
  Alcotest.(check (float 0.0)) "p99 latency" p99_h p99;
  Alcotest.(check int) "messages sent" msgs_h msgs;
  Alcotest.(check int) "stable-gp" gp_h gp;
  Alcotest.(check int) "events executed" events_h (Engine.events_executed ())

(* --- the effect stash is domain-local --- *)

(* [sleep] and [suspend] pass their argument through the engine state
   rather than the effect value. Two domains hammering both at once, each
   with its own durations and wake values, must each see exactly their
   own: a stash shared between domains would hand one domain's duration
   or register function to the other. *)
let test_stash_domain_local () =
  let sim base () =
    let bad = ref 0 and steps = ref 0 in
    Engine.run (fun () ->
        for f = 1 to 40 do
          Engine.spawn (fun () ->
              for k = 1 to 2000 do
                let d = base + (f * 7) + k in
                let t0 = Engine.now () in
                Engine.sleep d;
                if Engine.now () - t0 <> d then incr bad;
                let want = base + (f * 1000) + k in
                let got =
                  Engine.suspend (fun w ->
                      Engine.call_after (k mod 3) (fun () ->
                          ignore (Engine.wake w want : bool)))
                in
                if got <> want then incr bad;
                incr steps
              done)
        done);
    (!bad, !steps)
  in
  for _round = 1 to 3 do
    let d1 = Domain.spawn (sim 1) in
    let d2 = Domain.spawn (sim 1_000_000) in
    let b1, s1 = Domain.join d1 and b2, s2 = Domain.join d2 in
    Alcotest.(check int) "domain 1 saw its own arguments" 0 b1;
    Alcotest.(check int) "domain 2 saw its own arguments" 0 b2;
    Alcotest.(check int) "domain 1 ran every step" 80_000 s1;
    Alcotest.(check int) "domain 2 ran every step" 80_000 s2
  done

let () =
  Alcotest.run "wheel"
    [
      ( "equivalence",
        [
          Alcotest.test_case "100 seeds, no perturb" `Quick
            (test_equivalence ~perturb:false);
          Alcotest.test_case "100 seeds, perturbed ties" `Quick
            (test_equivalence ~perturb:true);
          Alcotest.test_case "erwin-m cluster stats identical" `Quick
            test_cluster_equivalence;
        ] );
      ( "effects",
        [
          Alcotest.test_case "stash is domain-local" `Quick
            test_stash_domain_local;
        ] );
    ]
