type time = int

let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000
let us_f x = int_of_float ((x *. 1_000.) +. 0.5)
let to_us t = float_of_int t /. 1_000.
let to_ms t = float_of_int t /. 1_000_000.
let to_sec t = float_of_int t /. 1_000_000_000.

(* [tie] breaks ties among equal-time events. In the default schedule it is
   0, so the [seq] FIFO order decides; under perturbation (ll_check) it is
   drawn from a per-run seeded stream, so one workload explores many legal
   interleavings while staying fully deterministic per seed.

   Events execute in strict ascending [(at, tie, seq)] order. The
   scheduler is a hierarchical timer wheel (below), whose per-event cost
   is O(1) appends plus bitmap scans instead of O(log n) comparator sifts,
   and whose run loop drains a whole slot (one exact timestamp) per bitmap
   scan, dispatching head-first in a tight loop — the slot list itself is
   the run queue, so batching adds no copy and a pending same-instant cell
   stays cancellable until the moment it fires.

   Since [seq] is unique, the order is total: any correct scheduler
   executes the identical sequence. test_wheel.ml holds a reference
   binary-heap scheduler (the pre-wheel implementation) and checks the
   wheel executes its sequence exactly. Cancelled timers ({!cancel}) are
   removed from the schedule without executing. *)

(* Event cells are pooled in struct-of-arrays form: scheduling an event
   writes four ints and one pointer (two for a fiber start or a
   [call_at_with]) into recycled slots instead of allocating a record
   plus a dispatch closure. [kind] selects how the run loop fires the
   cell: *)
let k_thunk = 0 (* payload : unit -> unit, called bare in the loop *)
let k_cont = 1 (* payload : (unit, unit) continuation (a sleeping fiber) *)
let k_fiber = 2 (* payload : unit -> unit, started as a fiber via [exec] *)
let k_dead = 3 (* cancelled timer awaiting reclamation (overflow heap) *)
let k_wake = 4 (* payload : a woken waker; resumes its fiber or callback *)
let k_deadline = 5 (* payload : a waker whose {!arm_timeout} deadline hit *)
let k_with = 6 (* payload : the argument of the function in [ev_fn] *)

(* Wheel geometry: 3 levels of 2048 slots. Level 0 buckets by exact
   nanosecond (slot = at land mask), so a slot never mixes timestamps and
   FIFO append is already (tie, seq) order in unperturbed runs; level l
   slots cover 2048^l ns and cascade down when the clock reaches them.
   Level 2 spans 2^33 ns (~8.6 simulated seconds) from the current cycle
   origin; anything beyond falls back to a small overflow heap. 2048 keeps
   the level-0 slot array (2 ints per slot) at 32 KB — L1-resident, which
   measurably beats larger wheels at tens of Mevents/s. *)
let wheel_bits = 11
let wheel_slots = 1 lsl wheel_bits
let wheel_mask = wheel_slots - 1
let bm_words = wheel_slots lsr 5 (* occupancy bitmaps, 32 bits per word *)

(* Lowest set bit of a nonzero 32-bit value: (x land -x) is a power of
   two, and 2 is a primitive root mod 37, so [mod 37] is a perfect hash
   for the 32 possible isolated bits. *)
let lsb_table =
  let t = Array.make 37 0 in
  for i = 0 to 31 do
    t.((1 lsl i) mod 37) <- i
  done;
  t

let lowest_bit x = lsb_table.((x land -x) mod 37)

(* A cell's current location is packed into its [seqk] word (below):
   13 bits hold either [level lsl 11 lor slot] for a cell linked into a
   wheel slot list, or a sentinel. O(1) cancellation needs this: the
   token identifies the cell, and the location says which doubly-linked
   slot list to unlink it from. *)
let loc_bits = 13
let loc_mask = (1 lsl loc_bits) - 1
let loc_ovf = loc_mask (* parked in the overflow heap: tombstone on cancel *)
let loc_free = loc_mask - 1 (* free-listed / detached *)

(* [seqk] packs [seq lsl 16 lor loc lsl 3 lor kind]. Two cells in the
   same slot list share their [loc] bits, so comparing whole [seqk] words
   compares [seq] — the trick that keeps sorted level-0 inserts to one
   load per cell. [seq] gets 47 bits: ~1.4e14 events per run. *)
let kind_bits = 3
let kind_mask = (1 lsl kind_bits) - 1
let seqk_shift = loc_bits + kind_bits
let seqk_make seq kind =
  (seq lsl seqk_shift) lor (loc_free lsl kind_bits) lor kind
let seqk_seq sk = sk lsr seqk_shift
let seqk_kind sk = sk land kind_mask
let seqk_loc sk = (sk lsr kind_bits) land loc_mask
let seqk_set_loc sk loc =
  sk land lnot (loc_mask lsl kind_bits) lor (loc lsl kind_bits)
let seqk_set_kind sk kind = sk land lnot kind_mask lor kind

(* Overflow entries carry their key so the heap comparator never chases
   the (growable) pool arrays. Rare path: only timers beyond the current
   2^39 ns cycle land here. *)
type ovf = { oat : time; otie : int; oseq : int; ocell : int }

let ovf_cmp a b =
  let c = Int.compare a.oat b.oat in
  if c <> 0 then c
  else
    let c = Int.compare a.otie b.otie in
    if c <> 0 then c else Int.compare a.oseq b.oseq

let nil = -1
let unit_obj = Obj.repr 0
let no_name = ""

(* Cancel tokens are immediate ints: 0 is "none", otherwise
   [cell lsl 38 lor seq] (validated against the cell's live [seq] so a
   fired-and-recycled cell can't be cancelled by a stale token). Tokens
   are only meaningful within the run that made them. *)
type timer = int

let no_timer = 0
let token_seq_bits = 38
let token_seq_mask = (1 lsl token_seq_bits) - 1

(* Scheduler state is domain-local: each OS domain owns an independent
   engine, so seed sweeps (bin/lazylog_check) parallelize across domains
   with no shared state. Within a domain, runs are not reentrant and the
   simulation is single-fiber-at-a-time, so plain mutable fields are safe
   and fast. *)
type state = {
  mutable clock : time;
  mutable seqno : int;
  mutable running : bool;
  mutable stopping : bool;
  mutable fibers : int;
  mutable executed : int;
  mutable cancelled : int;
  mutable seed : int;
  mutable rng : Random.State.t;
  mutable perturb_rng : Random.State.t option;
  (* Effect arguments. [Sleep] and [Suspend] are constant effects (no
     allocation per perform): the caller stashes the duration, or the
     register function and its argument, here and the preallocated
     handler reads them back before anything else can run. A fiber start
     stashes its name and body for the [fiber_main] trampoline the same
     way. The stash must be
     domain-local, like everything else here: two domains running
     simulations at once would otherwise read each other's arguments.
     Read values are left in place, not cleared: the next store then
     usually overwrites a young value, which costs the write barrier no
     remembered-set entry (the stash itself lives in the major heap). *)
  mutable stash_d : time;
  mutable stash_reg : Obj.t;
  mutable stash_arg : Obj.t;
  mutable start_name : string;
  mutable start_fn : unit -> unit;
  (* Pooled cells. The int fields live interleaved in [ev_i] at stride 4
     — at, seqk (seq|loc|kind, above), next, prev — so touching a cell
     costs one 32-byte block; this is what keeps 10^5 live timers fast.
     Freed cells form a free list threaded through the next field; cells
     at index [hw] and above have never been handed out since the pool
     was last reset, so a reset clears only the cells below [hw].
     [ev_tie] is only read under ~perturb (ties are 0 otherwise) so the
     unperturbed hot path never touches it. [ev_fn] holds a fiber-start
     cell's name and a [k_with] cell's function, and is only touched for
     those two kinds. *)
  mutable ev_i : int array;
  mutable ev_tie : int array;
  mutable ev_payload : Obj.t array;
  mutable ev_fn : Obj.t array;
  mutable free_head : int;
  mutable hw : int;
  mutable live : int;
  (* wheel: per level, slot lists (head at [2*slot], tail at [2*slot+1],
     one cache line per touch), occupancy bitmap, live count, and current
     scan position *)
  hts : int array array;
  bitmaps : int array array;
  counts : int array;
  pos : int array;
  overflow : ovf Heap.t;
}

let initial_pool = 1024

let fresh_state () =
  {
    clock = 0;
    seqno = 0;
    running = false;
    stopping = false;
    fibers = 0;
    executed = 0;
    cancelled = 0;
    seed = 0;
    rng = Random.State.make [| 0 |];
    perturb_rng = None;
    stash_d = 0;
    stash_reg = unit_obj;
    stash_arg = unit_obj;
    start_name = no_name;
    start_fn = ignore;
    ev_i = Array.make (4 * initial_pool) 0;
    ev_tie = Array.make initial_pool 0;
    ev_payload = Array.make initial_pool unit_obj;
    ev_fn = Array.make initial_pool unit_obj;
    free_head = nil;
    hw = 0;
    live = 0;
    hts = Array.init 3 (fun _ -> Array.make (2 * wheel_slots) nil);
    bitmaps = Array.init 3 (fun _ -> Array.make bm_words 0);
    counts = Array.make 3 0;
    pos = Array.make 3 0;
    overflow = Heap.create ~cmp:ovf_cmp;
  }

let dls : state Domain.DLS.key = Domain.DLS.new_key fresh_state

let state () = Domain.DLS.get dls

exception Fiber_failure of string * exn

let require_running what =
  if not (state ()).running then failwith (what ^ ": not inside Engine.run")

(* ---------- pooled cells ---------- *)

let grow_pool s =
  let cap = Array.length s.ev_payload in
  let ncap = cap * 2 in
  let copy a fill =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 cap;
    n
  in
  let ev_i = Array.make (4 * ncap) 0 in
  Array.blit s.ev_i 0 ev_i 0 (4 * cap);
  s.ev_i <- ev_i;
  s.ev_tie <- copy s.ev_tie 0;
  s.ev_payload <- copy s.ev_payload unit_obj;
  s.ev_fn <- copy s.ev_fn unit_obj

(* Pool and slot indices are in range by construction (cells come off the
   free list, slots are masked), so the per-event paths use unsafe array
   accessors: at millions of events per second the bounds checks are
   measurable. *)

(* The cell [alloc_cell] hands out next: the free-list head, else the
   first never-used cell ([hw], which is the first cell [grow_pool] adds
   when the pool is full). Freed cells are reused LIFO before any unused
   one, so the hottest cell stays cache-resident. *)
let next_cell s = if s.free_head < 0 then s.hw else s.free_head

let alloc_cell s =
  let c = s.free_head in
  if c >= 0 then begin
    s.free_head <- Array.unsafe_get s.ev_i ((4 * c) + 2);
    c
  end
  else begin
    let c = s.hw in
    if c = Array.length s.ev_payload then grow_pool s;
    s.hw <- c + 1;
    c
  end

(* Only fiber-start and [k_with] cells hold anything in [ev_fn], so the
   common cell never touches that array. [seqk] is zeroed so a stale
   cancel token (seq >= 1 always) can never match a freed or recycled
   cell. *)
let free_cell s c =
  let k = Array.unsafe_get s.ev_i ((4 * c) + 1) land kind_mask in
  if k = k_with || k = k_fiber then Array.unsafe_set s.ev_fn c unit_obj;
  Array.unsafe_set s.ev_payload c unit_obj;
  Array.unsafe_set s.ev_i ((4 * c) + 1) 0;
  Array.unsafe_set s.ev_i ((4 * c) + 2) s.free_head;
  s.free_head <- c

(* ---------- wheel primitives ---------- *)

let bit_set bm slot =
  let w = slot lsr 5 in
  Array.unsafe_set bm w (Array.unsafe_get bm w lor (1 lsl (slot land 31)))

let bit_clear bm slot =
  let w = slot lsr 5 in
  Array.unsafe_set bm w
    (Array.unsafe_get bm w land lnot (1 lsl (slot land 31)))

(* First set bit at or after [start]; the caller guarantees one exists
   (the word scan stays bounds-checked so a broken invariant raises
   instead of reading wild memory). *)
let scan_from bm start =
  let w0 = start lsr 5 in
  let x = Array.unsafe_get bm w0 land (-1 lsl (start land 31)) in
  if x <> 0 then (w0 lsl 5) lor lowest_bit x
  else begin
    let w = ref (w0 + 1) in
    while bm.(!w) = 0 do
      incr w
    done;
    (!w lsl 5) lor lowest_bit bm.(!w)
  end

(* Level-0 slots hold a single exact timestamp, kept sorted by (tie, seq).
   Unperturbed cells arrive in ascending seq with tie 0, so the tail
   append fast path always hits; perturbed runs pay an O(slot) walk.
   Lists are doubly linked (prev at [4c+3]) so {!cancel} unlinks in
   O(1). *)
let l0_insert s c =
  let ev = s.ev_i in
  let slot = Array.unsafe_get ev (4 * c) land wheel_mask in
  let sk = seqk_set_loc (Array.unsafe_get ev ((4 * c) + 1)) slot in
  Array.unsafe_set ev ((4 * c) + 1) sk;
  let hts = Array.unsafe_get s.hts 0 in
  let tl = Array.unsafe_get hts ((2 * slot) + 1) in
  (if tl < 0 then begin
     Array.unsafe_set hts (2 * slot) c;
     Array.unsafe_set hts ((2 * slot) + 1) c;
     Array.unsafe_set ev ((4 * c) + 2) nil;
     Array.unsafe_set ev ((4 * c) + 3) nil;
     bit_set (Array.unsafe_get s.bitmaps 0) slot
   end
   else
     match s.perturb_rng with
     | None ->
       (* Same slot means same timestamp and same loc bits, so comparing
          whole [seqk] words compares [seq]; unperturbed arrivals — fresh
          schedules, cascades, overflow drains — are all in ascending seq
          per timestamp, so the tail append always hits. The sorted walk
          below is kept as a safety net. *)
       if sk > Array.unsafe_get ev ((4 * tl) + 1) then begin
         Array.unsafe_set ev ((4 * tl) + 2) c;
         Array.unsafe_set ev ((4 * c) + 2) nil;
         Array.unsafe_set ev ((4 * c) + 3) tl;
         Array.unsafe_set hts ((2 * slot) + 1) c
       end
       else begin
         let hd = Array.unsafe_get hts (2 * slot) in
         if sk < ev.((4 * hd) + 1) then begin
           ev.((4 * c) + 2) <- hd;
           ev.((4 * c) + 3) <- nil;
           ev.((4 * hd) + 3) <- c;
           hts.(2 * slot) <- c
         end
         else begin
           let p = ref hd in
           while
             ev.((4 * !p) + 2) >= 0 && sk > ev.((4 * ev.((4 * !p) + 2)) + 1)
           do
             p := ev.((4 * !p) + 2)
           done;
           let n = ev.((4 * !p) + 2) in
           ev.((4 * c) + 2) <- n;
           ev.((4 * c) + 3) <- !p;
           if n >= 0 then ev.((4 * n) + 3) <- c;
           ev.((4 * !p) + 2) <- c
         end
       end
     | Some _ ->
       (* Checker path: ties are random, so this is a real sorted insert
          by (tie, seq); the closure allocation is fine here. *)
       let after_of a b =
         let cmp = Int.compare s.ev_tie.(a) s.ev_tie.(b) in
         if cmp <> 0 then cmp > 0 else ev.((4 * a) + 1) > ev.((4 * b) + 1)
       in
       if after_of c tl then begin
         ev.((4 * tl) + 2) <- c;
         ev.((4 * c) + 2) <- nil;
         ev.((4 * c) + 3) <- tl;
         hts.((2 * slot) + 1) <- c
       end
       else begin
         let hd = hts.(2 * slot) in
         if not (after_of c hd) then begin
           ev.((4 * c) + 2) <- hd;
           ev.((4 * c) + 3) <- nil;
           ev.((4 * hd) + 3) <- c;
           hts.(2 * slot) <- c
         end
         else begin
           let p = ref hd in
           while ev.((4 * !p) + 2) >= 0 && after_of c ev.((4 * !p) + 2) do
             p := ev.((4 * !p) + 2)
           done;
           let n = ev.((4 * !p) + 2) in
           ev.((4 * c) + 2) <- n;
           ev.((4 * c) + 3) <- !p;
           if n >= 0 then ev.((4 * n) + 3) <- c;
           ev.((4 * !p) + 2) <- c
         end
       end);
  s.counts.(0) <- s.counts.(0) + 1

(* Levels >= 1 are plain FIFO appends; order within a coarse slot is
   resolved when it cascades down. *)
let lx_insert s l c =
  let ev = s.ev_i in
  let slot = (ev.(4 * c) lsr (wheel_bits * l)) land wheel_mask in
  ev.((4 * c) + 1) <-
    seqk_set_loc ev.((4 * c) + 1) ((l lsl wheel_bits) lor slot);
  let hts = s.hts.(l) in
  let tl = hts.((2 * slot) + 1) in
  if tl < 0 then begin
    hts.(2 * slot) <- c;
    bit_set s.bitmaps.(l) slot
  end
  else ev.((4 * tl) + 2) <- c;
  ev.((4 * c) + 2) <- nil;
  ev.((4 * c) + 3) <- tl;
  hts.((2 * slot) + 1) <- c;
  s.counts.(l) <- s.counts.(l) + 1

(* Insert relative to reference time [ref_] (the clock, except while
   draining the overflow heap into a far-future cycle). *)
let wheel_insert s ~ref_ c =
  let t = s.ev_i.(4 * c) in
  if t lsr wheel_bits = ref_ lsr wheel_bits then l0_insert s c
  else if t lsr (2 * wheel_bits) = ref_ lsr (2 * wheel_bits) then
    lx_insert s 1 c
  else if t lsr (3 * wheel_bits) = ref_ lsr (3 * wheel_bits) then
    lx_insert s 2 c
  else begin
    let sk = s.ev_i.((4 * c) + 1) in
    s.ev_i.((4 * c) + 1) <- seqk_set_loc sk loc_ovf;
    Heap.push s.overflow
      {
        oat = t;
        otie =
          (match s.perturb_rng with
          | None -> 0
          | Some _ -> s.ev_tie.(c));
        oseq = seqk_seq sk;
        ocell = c;
      }
  end

(* Move the next occupied level-[l] slot's cells one level down. List
   order is insertion order (ascending seq per timestamp), which the
   lower-level inserts preserve, so ordering survives each cascade. *)
let cascade s l =
  let slot = scan_from s.bitmaps.(l) s.pos.(l) in
  let hts = s.hts.(l) in
  let c = ref hts.(2 * slot) in
  hts.(2 * slot) <- nil;
  hts.((2 * slot) + 1) <- nil;
  bit_clear s.bitmaps.(l) slot;
  s.pos.(l) <- slot;
  s.pos.(l - 1) <- 0;
  while !c >= 0 do
    let next = s.ev_i.((4 * !c) + 2) in
    s.counts.(l) <- s.counts.(l) - 1;
    if l = 1 then l0_insert s !c else lx_insert s 1 !c;
    c := next
  done

(* Refill the wheels with the overflow heap's earliest 2^39 ns cycle.
   Heap pops arrive in (at, tie, seq) order, so per-slot appends keep
   every list sorted. Cancelled cells were tombstoned in place (the
   binary heap has no O(1) removal) and are reclaimed here. *)
let drain_overflow s =
  match Heap.peek s.overflow with
  | None -> failwith "Engine: live events but empty wheel and overflow"
  | Some top ->
    let cyc = top.oat lsr (3 * wheel_bits) in
    s.pos.(0) <- 0;
    s.pos.(1) <- 0;
    s.pos.(2) <- 0;
    let continue_ = ref true in
    while !continue_ do
      match Heap.peek s.overflow with
      | Some o when o.oat lsr (3 * wheel_bits) = cyc ->
        ignore (Heap.pop s.overflow);
        if seqk_kind s.ev_i.((4 * o.ocell) + 1) = k_dead then
          free_cell s o.ocell
        else wheel_insert s ~ref_:top.oat o.ocell
      | _ -> continue_ := false
    done

(* Bring the earliest pending work down to level 0, or report the run
   finished. Level 0 always holds the earliest pending cells when
   nonempty: they live in the current 2 us cycle, while higher levels and
   the overflow heap only hold strictly later cycles. *)
let rec refill s =
  if s.live = 0 then false
  else if Array.unsafe_get s.counts 0 > 0 then true
  else if s.counts.(1) > 0 then begin
    cascade s 1;
    refill s
  end
  else if s.counts.(2) > 0 then begin
    cascade s 2;
    refill s
  end
  else begin
    drain_overflow s;
    refill s
  end

let wheel_reset s =
  for l = 0 to 2 do
    Array.fill s.hts.(l) 0 (2 * wheel_slots) nil;
    Array.fill s.bitmaps.(l) 0 bm_words 0;
    s.counts.(l) <- 0;
    s.pos.(l) <- 0
  done;
  Heap.clear s.overflow;
  (* Cells at [hw] and above were never handed out since the last reset,
     so they hold nothing: after one run grew the pool to 10^6 cells, a
     small run's reset stays short, and the capacity stays for the next
     large run. *)
  for i = 0 to s.hw - 1 do
    s.ev_i.((4 * i) + 1) <- 0;
    s.ev_payload.(i) <- unit_obj;
    s.ev_fn.(i) <- unit_obj
  done;
  s.free_head <- nil;
  s.hw <- 0;
  s.live <- 0

(* ---------- timer cancellation ---------- *)

(* Cancel a pending timer: unlink the cell from its doubly-linked slot
   list and recycle it immediately (overflow-parked cells are tombstoned
   and reclaimed when their cycle drains). The callback never fires, and
   a completed timed wait leaves nothing behind to churn through the
   scheduler. *)
let cancel tok =
  let s = state () in
  if tok = no_timer then false
  else begin
    let cell = tok lsr token_seq_bits in
    let seq = tok land token_seq_mask in
    let ev = s.ev_i in
    let sk = ev.((4 * cell) + 1) in
    if seqk_seq sk land token_seq_mask <> seq then false
      (* already fired (cell freed or recycled under a new seq) *)
    else begin
      let loc = seqk_loc sk in
      if loc = loc_free then false
      else if loc = loc_ovf then
        (* Overflow-parked cells are tombstoned in place (the heap entry
           still points at them) and reclaimed when their cycle drains;
           the tombstone keeps seq and loc, so a repeated cancel must be
           rejected on the kind. *)
        if seqk_kind sk = k_dead then false
        else begin
          ev.((4 * cell) + 1) <- seqk_set_kind sk k_dead;
          Array.unsafe_set s.ev_payload cell unit_obj;
          Array.unsafe_set s.ev_fn cell unit_obj;
          s.live <- s.live - 1;
          s.cancelled <- s.cancelled + 1;
          true
        end
      else begin
        let l = loc lsr wheel_bits and slot = loc land wheel_mask in
        let n = ev.((4 * cell) + 2) and p = ev.((4 * cell) + 3) in
        let hts = s.hts.(l) in
        if p >= 0 then ev.((4 * p) + 2) <- n else hts.(2 * slot) <- n;
        if n >= 0 then ev.((4 * n) + 3) <- p
        else hts.((2 * slot) + 1) <- p;
        if p < 0 && n < 0 then bit_clear s.bitmaps.(l) slot;
        s.counts.(l) <- s.counts.(l) - 1;
        s.live <- s.live - 1;
        free_cell s cell;
        s.cancelled <- s.cancelled + 1;
        true
      end
    end
  end

(* ---------- scheduling and fibers ---------- *)

(* A waker is the suspended fiber's continuation plus the value to resume
   it with, so waking it schedules the waker itself as the event ([k_wake])
   and neither a resume closure nor a wake thunk is allocated. While a
   deadline is armed, [value] holds the deadline's value; a normal wake
   overwrites it. The type parameter only records what [wake] must be
   given: the fields are untyped.

   A callback waker ({!callback_waker}) holds a function in [k] instead of
   a continuation: its [k_wake] cell calls the function with the value,
   bare, and re-arms the waker for its next wake. [state] tells the two
   kinds apart without another field: bit 0 is "fired", bit 1 marks a
   callback waker. *)
type 'a waker = {
  mutable state : int;
  mutable k : Obj.t;  (* (Obj.t, unit) continuation, or Obj.t -> unit *)
  mutable value : Obj.t;
  mutable deadline : timer;
}

let w_fired = 1
let w_callback = 2

let is_woken w = w.state land w_fired <> 0

type _ Effect.t += Sleep : unit Effect.t | Suspend : Obj.t Effect.t

(* Ties are drawn only under ~perturb, so the unperturbed hot path never
   touches [ev_tie]. [wheel_insert] stays a tail call: returning the cell
   from here measurably slows every scheduled event, so {!timer_at} reads
   the cell index up front with [next_cell]. *)
let schedule_cell s at kind payload fn =
  let at = if at < s.clock then s.clock else at in
  s.seqno <- s.seqno + 1;
  let c = alloc_cell s in
  Array.unsafe_set s.ev_i (4 * c) at;
  Array.unsafe_set s.ev_i ((4 * c) + 1) (seqk_make s.seqno kind);
  (match s.perturb_rng with
  | None -> ()
  | Some prng -> Array.unsafe_set s.ev_tie c (Random.State.bits prng));
  Array.unsafe_set s.ev_payload c payload;
  if fn != unit_obj then Array.unsafe_set s.ev_fn c fn;
  s.live <- s.live + 1;
  wheel_insert s ~ref_:s.clock c

(* The token of the cell [schedule_cell] is about to fill with the next
   seq; call it before scheduling. *)
let next_token s =
  (next_cell s lsl token_seq_bits) lor ((s.seqno + 1) land token_seq_mask)

(* The effect handler is one preallocated record shared by every fiber:
   [Sleep] and [Suspend] carry no argument (it is stashed in the state),
   so the handler functions close over nothing and each perform costs
   only its continuation. *)
let on_sleep =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let s = state () in
      schedule_cell s (s.clock + s.stash_d) k_cont (Obj.repr k) unit_obj)

let on_suspend =
  Some
    (fun (k : (Obj.t, unit) Effect.Deep.continuation) ->
      let s = state () in
      let register : Obj.t waker -> Obj.t -> unit = Obj.obj s.stash_reg in
      register
        { state = 0; k = Obj.repr k; value = unit_obj; deadline = no_timer }
        s.stash_arg)

let handler : (unit, unit) Effect.Deep.handler =
  {
    retc = Fun.id;
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Sleep -> on_sleep
        | Suspend -> on_suspend
        | _ -> None);
  }

(* Every fiber starts in this trampoline, which picks its name and body up
   from the stash ([exec] set them just before), so a start allocates no
   closure. Failures are tagged with the fiber's name here, on the fiber's
   own stack, which is what lets the handler be shared. *)
let fiber_main () =
  let s = state () in
  let name = s.start_name and f = s.start_fn in
  try f () with
  | Fiber_failure _ as e -> raise e
  | e -> raise (Fiber_failure (name, e))

let exec s name f =
  s.fibers <- s.fibers + 1;
  s.start_name <- name;
  s.start_fn <- f;
  Effect.Deep.match_with fiber_main () handler

let schedule at fn =
  schedule_cell (state ()) at k_fiber (Obj.repr fn) (Obj.repr "at")

let wake w v =
  if w.state land w_fired <> 0 then false
  else begin
    w.state <- w.state lor w_fired;
    (* A normal wake cancels the waker's armed deadline (if any), so a
       completed timed wait leaves no dead timer behind in the wheel. *)
    (match w.deadline with
    | 0 -> ()
    | t ->
      w.deadline <- no_timer;
      ignore (cancel t : bool));
    w.value <- Obj.repr v;
    (* Resume on a fresh event so wake never re-enters the waker's fiber
       from the middle of the caller's slice: determinism and no surprise
       reentrancy. *)
    let s = state () in
    schedule_cell s s.clock k_wake (Obj.repr w) unit_obj;
    true
  end

let callback_waker f =
  { state = w_callback; k = Obj.repr f; value = unit_obj; deadline = no_timer }

(* Dispatch of a [k_wake] cell: resume the fiber with the wake value, or
   re-arm a callback waker and call its function. A fiber waker's fields
   are not cleared: a resumed continuation holds no stack, and the waker
   is garbage once its waiter lists have dropped it. A callback waker
   lives on, so it drops the value rather than keep it reachable. *)
let resume (w : Obj.t waker) =
  if w.state = w_callback lor w_fired then begin
    w.state <- w_callback;
    let v = w.value in
    w.value <- unit_obj;
    (Obj.obj w.k : Obj.t -> unit) v
  end
  else
    Effect.Deep.continue
      (Obj.obj w.k : (Obj.t, unit) Effect.Deep.continuation)
      w.value

(* Dispatch of a [k_deadline] cell: the deadline beat every normal wake,
   so wake the waker with the value {!arm_timeout} stashed. Its own cell
   has just retired, so there is nothing left to cancel. *)
let expire s (w : Obj.t waker) =
  if w.state land w_fired = 0 then begin
    w.state <- w.state lor w_fired;
    w.deadline <- no_timer;
    schedule_cell s s.clock k_wake (Obj.repr w) unit_obj
  end

(* [now] reads the domain-local clock directly rather than performing an
   effect: it is hot on every fabric hop and is safe from bare [call_at]
   callbacks too. *)
let now () =
  let s = state () in
  if not s.running then failwith "now: not inside Engine.run";
  s.clock

let sleep d =
  let s = state () in
  if not s.running then failwith "sleep: not inside Engine.run";
  s.stash_d <- (if d < 0 then 0 else d);
  Effect.perform Sleep

let sleep_until t =
  let n = now () in
  sleep (if t > n then t - n else 0)

(* A spawn only schedules the child's start cell, so it needs no effect:
   it is legal from bare callbacks, and the parent keeps running. *)
let spawn ?(name = "fiber") f =
  let s = state () in
  if not s.running then failwith "spawn: not inside Engine.run";
  schedule_cell s s.clock k_fiber (Obj.repr f) (Obj.repr name)

let start_now ?(name = "fiber") f =
  let s = state () in
  if not s.running then failwith "start_now: not inside Engine.run";
  exec s name f

let yield () = sleep 0

let suspend_with register v =
  let s = state () in
  if not s.running then failwith "suspend: not inside Engine.run";
  s.stash_reg <- Obj.repr register;
  s.stash_arg <- Obj.repr v;
  Obj.obj (Effect.perform Suspend)

let suspend register = suspend_with (fun w f -> f w) register

let at t fn =
  require_running "at";
  schedule t fn

let after d fn = at ((state ()).clock + d) fn

let call_at t fn =
  let s = state () in
  if not s.running then failwith "call_at: not inside Engine.run";
  schedule_cell s t k_thunk (Obj.repr fn) unit_obj

let call_after d fn =
  let s = state () in
  if not s.running then failwith "call_after: not inside Engine.run";
  schedule_cell s (s.clock + d) k_thunk (Obj.repr fn) unit_obj

(* The function and its argument ride in the cell itself ([ev_fn] and
   the payload), so a caller that passes one long-lived function and a
   fresh argument allocates no closure per event. The position is
   [call_at]'s: one seq from the same counter. *)
let call_at_with t (fn : 'a -> unit) (v : 'a) =
  let s = state () in
  if not s.running then failwith "call_at_with: not inside Engine.run";
  schedule_cell s t k_with (Obj.repr v) (Obj.repr fn)

(* Like [call_at], but hands back a cancel token. The scheduled position
   (at, tie, seq) is identical to [call_at]'s, so converting a call site
   changes no schedule until a cancel actually removes the timer. *)
let timer_at t fn =
  let s = state () in
  if not s.running then failwith "timer_at: not inside Engine.run";
  let tok = next_token s in
  schedule_cell s t k_thunk (Obj.repr fn) unit_obj;
  tok

let timer_after d fn =
  let s = state () in
  if not s.running then failwith "timer_after: not inside Engine.run";
  timer_at (s.clock + d) fn

(* The deadline cell carries the waker itself ([k_deadline]) and the value
   waits in the waker, so arming allocates nothing. A waker that already
   fired keeps its wake value; its deadline cell still runs, as a no-op,
   exactly as a timer racing a won wake always has. *)
let arm_timeout w d v =
  let s = state () in
  if not s.running then failwith "arm_timeout: not inside Engine.run";
  if w.state land w_fired = 0 then w.value <- Obj.repr v;
  let tok = next_token s in
  schedule_cell s (s.clock + d) k_deadline (Obj.repr w) unit_obj;
  w.deadline <- tok

let random_state () = (state ()).rng

let master_seed () = (state ()).seed

let events_executed () = (state ()).executed

let timers_cancelled () = (state ()).cancelled

(* Scheduled-but-unfired events, exact: cancelled cells are unlinked
   (or, overflow-parked, dropped from the count at cancel time). *)
let pending_events () = (state ()).live

let stop () = (state ()).stopping <- true

let fiber_count () = (state ()).fibers

let run ?(seed = 42) ?(perturb = false) ?until main =
  let s = state () in
  if s.running then failwith "Engine.run: runs must not nest";
  s.running <- true;
  s.stopping <- false;
  s.clock <- 0;
  s.seqno <- 0;
  s.fibers <- 0;
  s.executed <- 0;
  s.cancelled <- 0;
  s.seed <- seed;
  s.rng <- Random.State.make [| seed; 0x1a2706 |];
  s.perturb_rng <-
    (if perturb then Some (Random.State.make [| seed; 0x7e27b6 |]) else None);
  (* A finished run leaves nothing behind: pending events, the slab's
     payloads (a parked fiber's waker, and with it its stack) and the
     stash go, so the simulation is garbage once [run] returns. The next
     run then starts from this clean state. Both pools keep their
     capacity. *)
  let finish () =
    s.running <- false;
    wheel_reset s;
    Slab.reset ();
    s.stash_reg <- unit_obj;
    s.stash_arg <- unit_obj;
    s.start_name <- no_name;
    s.start_fn <- ignore
  in
  let ulim = match until with None -> max_int | Some u -> u in
  Fun.protect ~finally:finish (fun () ->
      try
        schedule_cell s 0 k_fiber (Obj.repr main) (Obj.repr "main");
        (* Batched resumption: each outer iteration locates the
           earliest occupied level-0 slot — every pending event of one
           exact timestamp, in (tie, seq) order — and the inner loop
           pops and dispatches head-first until the slot empties. The
           slot list is the run queue: no copy, and every cell stays
           linked (hence cancellable via the normal O(1) unlink) until
           the moment it fires.
           Events scheduled mid-batch for the same instant append to
           the draining slot with a larger seq, so they run at the
           batch's tail, exactly where the (at, tie, seq) order puts
           them. That tail-append argument needs ascending-seq
           tie-breaking; under ~perturb ties are random, so perturbed
           runs fall back to one full scan per event. *)
        let batch_all = s.perturb_rng = None in
        let continue_loop = ref true in
        while !continue_loop && not s.stopping do
          if not (refill s) then continue_loop := false
          else begin
            let bm0 = Array.unsafe_get s.bitmaps 0 in
            let slot = scan_from bm0 (Array.unsafe_get s.pos 0) in
            Array.unsafe_set s.pos 0 slot;
            let hts = Array.unsafe_get s.hts 0 in
            let ev = s.ev_i in
            let at = Array.unsafe_get ev (4 * Array.unsafe_get hts (2 * slot)) in
            if at > ulim then continue_loop := false
            else begin
              s.clock <- at;
              let draining = ref true in
              while !draining && not s.stopping do
                let head = Array.unsafe_get hts (2 * slot) in
                (* [ev_i] must be re-read per event: the one just
                   dispatched may have grown the pool, replacing the
                   arrays. ([hts] and the bitmaps are fixed-size.) *)
                let ev = s.ev_i in
                let hnext = Array.unsafe_get ev ((4 * head) + 2) in
                Array.unsafe_set hts (2 * slot) hnext;
                if hnext >= 0 then
                  Array.unsafe_set ev ((4 * hnext) + 3) nil
                else begin
                  Array.unsafe_set hts ((2 * slot) + 1) nil;
                  bit_clear bm0 slot
                end;
                s.counts.(0) <- Array.unsafe_get s.counts 0 - 1;
                s.live <- s.live - 1;
                let k = Array.unsafe_get ev ((4 * head) + 1) land kind_mask in
                let payload = Array.unsafe_get s.ev_payload head in
                s.executed <- s.executed + 1;
                if k = k_fiber then begin
                  let name = Array.unsafe_get s.ev_fn head in
                  free_cell s head;
                  exec s (Obj.obj name) (Obj.obj payload)
                end
                else if k = k_with then begin
                  let fn = Array.unsafe_get s.ev_fn head in
                  free_cell s head;
                  (Obj.obj fn : Obj.t -> unit) payload
                end
                else begin
                  free_cell s head;
                  if k = k_thunk then (Obj.obj payload : unit -> unit) ()
                  else if k = k_wake then resume (Obj.obj payload)
                  else if k = k_cont then
                    Effect.Deep.continue
                      (Obj.obj payload
                        : (unit, unit) Effect.Deep.continuation)
                      ()
                  else expire s (Obj.obj payload)
                end;
                (* Re-read the head: the dispatched event may have
                   scheduled into, or cancelled from, this slot. *)
                if (not batch_all) || Array.unsafe_get hts (2 * slot) < 0
                then draining := false
              done
            end
          end
        done
      with e ->
        (* Every failure names the master seed so it can be replayed. *)
        Printf.eprintf "Engine.run: aborting (master seed %d): %s\n%!" seed
          (Printexc.to_string e);
        raise e)
