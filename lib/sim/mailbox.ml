(* Items live in an intrusive slab list (head / tail node indices into
   the per-domain {!Slab}), so send/recv allocate nothing in steady state
   — the previous [Queue.t] representation paid a minor-heap cell per
   message and per waiter, which dominates at 10^6 parked producers.
   Blocked receivers park on a {!Waitq}, which drops a timed-out receiver
   at the next park. FIFO order of both lists is unchanged. *)
type 'a t = {
  mutable ihead : int;
  mutable itail : int;
  mutable ilen : int;
  receivers : Waitq.t;
}

let create () =
  {
    ihead = Slab.nil;
    itail = Slab.nil;
    ilen = 0;
    receivers = Waitq.create ();
  }

(* Waiters are woken with the message itself, untyped, so neither a wake
   nor a receive allocates an option; a timed receive's deadline wakes
   with this unique marker instead. *)
let timed_out = Obj.repr (ref ())

let send t v =
  if not (Waitq.wake_one t.receivers v) then begin
    let n = Slab.alloc (Obj.repr v) in
    if t.itail < 0 then t.ihead <- n else Slab.set_next t.itail n;
    t.itail <- n;
    t.ilen <- t.ilen + 1
  end

(* Pops the head item; the list must be nonempty. *)
let pop_item t =
  let n = t.ihead in
  let v = Obj.obj (Slab.get n) in
  t.ihead <- Slab.next n;
  if t.ihead < 0 then t.itail <- Slab.nil;
  Slab.free n;
  t.ilen <- t.ilen - 1;
  v

let take_item t = if t.ihead < 0 then None else Some (pop_item t)

let take_or_park t w f =
  if t.ihead >= 0 then f (pop_item t) else Waitq.park t.receivers w

let recv t =
  if t.ihead >= 0 then pop_item t
  else
    Obj.obj (Engine.suspend (fun (w : Obj.t Engine.waker) -> Waitq.park t.receivers w))

let recv_timeout t ~timeout =
  if t.ihead >= 0 then Some (pop_item t)
  else
    let r =
      Engine.suspend (fun (w : Obj.t Engine.waker) ->
          Waitq.park t.receivers w;
          (* the deadline cell is cancelled automatically when a send
             wakes this waiter first — no dead timer left in the wheel *)
          Engine.arm_timeout w timeout timed_out)
    in
    if r == timed_out then None else Some (Obj.obj r)

let try_recv t = take_item t

let length t = t.ilen

let clear t =
  let c = ref t.ihead in
  while !c >= 0 do
    let next = Slab.next !c in
    Slab.free !c;
    c := next
  done;
  t.ihead <- Slab.nil;
  t.itail <- Slab.nil;
  t.ilen <- 0
