(* The waiter list is an intrusive slab list (FIFO, like the old
   cons-then-[List.rev] representation but allocation-free); the value is
   stored untyped so the record itself is the whole ivar — no [state]
   variant reallocated on fill. *)
type 'a t = {
  mutable full : bool;
  mutable value : Obj.t;
  mutable whead : int;
  mutable wtail : int;
}

let unit_obj = Obj.repr 0

(* Waiters are woken with the value itself, untyped, so a wake allocates
   no option; a timed read's deadline wakes with this unique marker
   instead. *)
let timed_out = Obj.repr (ref ())

let create () =
  { full = false; value = unit_obj; whead = Slab.nil; wtail = Slab.nil }

let fill t v =
  if t.full then invalid_arg "Ivar.fill: already full"
  else begin
    t.full <- true;
    t.value <- Obj.repr v;
    let c = ref t.whead in
    t.whead <- Slab.nil;
    t.wtail <- Slab.nil;
    while !c >= 0 do
      let w : Obj.t Engine.waker = Obj.obj (Slab.get !c) in
      let next = Slab.next !c in
      Slab.free !c;
      ignore (Engine.wake w t.value : bool);
      c := next
    done
  end

let is_full t = t.full

let park t w =
  let nd = Slab.alloc (Obj.repr w) in
  if t.wtail < 0 then t.whead <- nd else Slab.set_next t.wtail nd;
  t.wtail <- nd

let read t =
  if t.full then (Obj.obj t.value : 'a)
  else
    Obj.obj
      (Engine.suspend (fun (w : Obj.t Engine.waker) ->
           (* re-check: a fill may have raced in before the suspension *)
           if t.full then ignore (Engine.wake w t.value : bool)
           else park t w))

(* Unlink every fired waiter. An expired reader's node would otherwise
   stay linked, holding its waker, until a fill that may never come (the
   follower GC drops its ack ivar unfilled past its deadline). Waking a fired waker schedules
   nothing, so dropping one changes no schedule. *)
let drop_fired t =
  let prev = ref Slab.nil and c = ref t.whead in
  while !c >= 0 do
    let next = Slab.next !c in
    if Engine.is_woken (Obj.obj (Slab.get !c) : Obj.t Engine.waker) then begin
      if !prev < 0 then t.whead <- next else Slab.set_next !prev next;
      Slab.free !c
    end
    else prev := !c;
    c := next
  done;
  t.wtail <- !prev

let read_timeout t ~timeout =
  if t.full then Some (Obj.obj t.value : 'a)
  else
    let r =
      Engine.suspend (fun (w : Obj.t Engine.waker) ->
          if t.full then ignore (Engine.wake w t.value : bool)
          else begin
            park t w;
            (* the fill that wakes this waiter cancels the deadline cell *)
            Engine.arm_timeout w timeout timed_out
          end)
    in
    if r == timed_out then begin
      drop_fired t;
      None
    end
    else Some (Obj.obj r : 'a)
