let nil = -1
let unit_obj = Obj.repr 0
let initial = 256

(* One pool per domain: [nxt] doubles as the intrusive list link of live
   nodes and the free-list thread of freed ones. Nodes at index [hw] and
   above have never been handed out since the last reset, so [alloc]
   takes them in order once the free list is empty, and [reset] walks
   only the nodes below [hw]. [data] is cleared on free so the slab never
   keeps a payload alive. *)
type pool = {
  mutable nxt : int array;
  mutable data : Obj.t array;
  mutable free_head : int;
  mutable hw : int;
  mutable used : int;
}

let fresh_pool () =
  {
    nxt = Array.make initial nil;
    data = Array.make initial unit_obj;
    free_head = nil;
    hw = 0;
    used = 0;
  }

let dls : pool Domain.DLS.key = Domain.DLS.new_key fresh_pool

let pool () = Domain.DLS.get dls

let grow p =
  let cap = Array.length p.nxt in
  let ncap = cap * 2 in
  let nxt = Array.make ncap nil in
  Array.blit p.nxt 0 nxt 0 cap;
  let data = Array.make ncap unit_obj in
  Array.blit p.data 0 data 0 cap;
  p.nxt <- nxt;
  p.data <- data

(* Indices come off the free list or the unused tail and stay in range
   by construction, so the per-node operations skip bounds checks —
   these run once per message send/receive at tens of millions of ops
   per second. *)

let alloc v =
  let p = pool () in
  let n = p.free_head in
  let n =
    if n >= 0 then begin
      p.free_head <- Array.unsafe_get p.nxt n;
      n
    end
    else begin
      let n = p.hw in
      if n = Array.length p.nxt then grow p;
      p.hw <- n + 1;
      n
    end
  in
  Array.unsafe_set p.data n v;
  Array.unsafe_set p.nxt n nil;
  p.used <- p.used + 1;
  n

let free n =
  let p = pool () in
  Array.unsafe_set p.data n unit_obj;
  Array.unsafe_set p.nxt n p.free_head;
  p.free_head <- n;
  p.used <- p.used - 1

let get n = Array.unsafe_get (pool ()).data n

let set n v = Array.unsafe_set (pool ()).data n v

let next n = Array.unsafe_get (pool ()).nxt n

let set_next n m = Array.unsafe_set (pool ()).nxt n m

let in_use () = (pool ()).used

let capacity () = Array.length (pool ()).nxt

let reset () =
  let p = pool () in
  Array.fill p.data 0 p.hw unit_obj;
  p.free_head <- nil;
  p.hw <- 0;
  p.used <- 0
