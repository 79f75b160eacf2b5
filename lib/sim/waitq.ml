(* Waiters live in an intrusive slab list in FIFO order. The previous
   representation consed waiters onto a [list] and every broadcast paid a
   [List.rev] allocation of the full waiter set — hot on every stable-gp
   advance; draining the slab list head-first wakes in the same FIFO
   order with zero allocation. *)
type t = {
  mutable whead : int;
  mutable wtail : int;
  mutable n : int;
  mutable sweep_at : int;  (* [n] at which {!park} next sweeps the list *)
}

let min_sweep = 8

let create () =
  { whead = Slab.nil; wtail = Slab.nil; n = 0; sweep_at = min_sweep }

let broadcast t =
  (* Detach the current waiter set first: wakes only schedule resumption
     thunks, but any waiter re-parked by a reentrant use must land in a
     fresh list, exactly as the old snapshot-and-reverse did. *)
  let c = ref t.whead in
  t.whead <- Slab.nil;
  t.wtail <- Slab.nil;
  t.n <- 0;
  t.sweep_at <- min_sweep;
  while !c >= 0 do
    let w : bool Engine.waker = Obj.obj (Slab.get !c) in
    let next = Slab.next !c in
    Slab.free !c;
    ignore (Engine.wake w true : bool);
    c := next
  done

let fired nd = Engine.is_woken (Obj.obj (Slab.get nd) : bool Engine.waker)

(* A waiter whose timed wait expired stays linked until something drops
   it: left to the next broadcast, an idle queue with a periodic timed
   waiter would grow by one dead node per timeout. Waking a fired waker
   schedules nothing, so dropping one early changes no schedule. [park]
   drops the fired run at the head every time, and sweeps the whole list
   once it has doubled since the last sweep, which bounds it at twice the
   live waiters (plus [min_sweep]) for amortized O(1) per park. *)
let sweep t =
  let prev = ref Slab.nil and c = ref t.whead in
  while !c >= 0 do
    let next = Slab.next !c in
    if fired !c then begin
      if !prev < 0 then t.whead <- next else Slab.set_next !prev next;
      Slab.free !c;
      t.n <- t.n - 1
    end
    else prev := !c;
    c := next
  done;
  t.wtail <- !prev;
  t.sweep_at <- max min_sweep (2 * t.n)

let park t (w : _ Engine.waker) =
  while t.whead >= 0 && fired t.whead do
    let nd = t.whead in
    t.whead <- Slab.next nd;
    Slab.free nd;
    t.n <- t.n - 1
  done;
  if t.whead < 0 then t.wtail <- Slab.nil;
  if t.n >= t.sweep_at then sweep t;
  let nd = Slab.alloc (Obj.repr w) in
  if t.wtail < 0 then t.whead <- nd else Slab.set_next t.wtail nd;
  t.wtail <- nd;
  t.n <- t.n + 1

(* Pop waiters until one takes [v]: a fired one (a timed-out receiver)
   is dropped without scheduling anything. *)
let rec wake_one t v =
  t.whead >= 0
  &&
  let nd = t.whead in
  let w : Obj.t Engine.waker = Obj.obj (Slab.get nd) in
  t.whead <- Slab.next nd;
  if t.whead < 0 then t.wtail <- Slab.nil;
  Slab.free nd;
  t.n <- t.n - 1;
  Engine.wake w (Obj.repr v) || wake_one t v

let await t pred =
  while not (pred ()) do
    ignore (Engine.suspend (fun w -> park t w) : bool)
  done

let await_timeout t ~timeout pred =
  let deadline = Engine.now () + timeout in
  let rec loop () =
    if pred () then true
    else begin
      let remaining = deadline - Engine.now () in
      if remaining <= 0 then pred ()
      else begin
        let woke =
          Engine.suspend (fun w ->
              park t w;
              (* a broadcast that wins the race cancels this deadline *)
              Engine.arm_timeout w remaining false)
        in
        ignore (woke : bool);
        loop ()
      end
    end
  in
  loop ()

let waiters t = t.n
