(* Positions live in chunks of [chunk_size] consecutive slots, indexed by
   chunk number ([pos lsr chunk_bits]) in a small table, with the last
   chunk touched cached: a dense log pays one table lookup per chunk, not
   per position, and a stored entry costs one array slot instead of a
   heap cell. A chunk with no predecessor starts small and doubles up to
   the full span as higher offsets are written, so the sparse logs that
   packed multi-log positions create (a few records at the base of a
   2^40-wide span per log) hold a few slots each, not a whole chunk. A
   chunk is dropped when its last entry goes. Range operations visit
   only chunks that exist: they walk chunk numbers when the range spans
   fewer chunks than the table holds, and walk the table otherwise. *)

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let initial_slots = 16

(* A free slot holds [absent]; entries are stored as [Obj.t] and read
   back at the log's element type. *)
let absent : Obj.t = Obj.repr (ref ())

type chunk = { mutable slots : Obj.t array; mutable live : int }

module Chunks = Hashtbl.Make (Int)

type 'a t = {
  chunks : chunk Chunks.t;
  mutable cached_no : int;  (* chunk number of [cached]; -1 for none *)
  mutable cached : chunk;
  mutable first : int;
  mutable next : int;
}

(* Stands for a missing chunk: it has no slots, so reads find nothing. It
   is never written. *)
let no_chunk = { slots = [||]; live = 0 }

let create () =
  {
    chunks = Chunks.create 16;
    cached_no = -1;
    cached = no_chunk;
    first = 0;
    next = 0;
  }

let find_chunk t no =
  if no = t.cached_no then t.cached
  else
    match Chunks.find_opt t.chunks no with
    | Some c ->
      t.cached_no <- no;
      t.cached <- c;
      c
    | None -> no_chunk

let drop_chunk t no =
  Chunks.remove t.chunks no;
  if no = t.cached_no then begin
    t.cached_no <- -1;
    t.cached <- no_chunk
  end

let grow c off =
  let len = ref (Array.length c.slots) in
  while !len <= off do
    len := 2 * !len
  done;
  let slots = Array.make !len absent in
  Array.blit c.slots 0 slots 0 (Array.length c.slots);
  c.slots <- slots

let set t pos v =
  if pos < 0 then invalid_arg "Mem_log.set: negative position";
  (* A position below [first] can never be read again: store nothing. *)
  if pos >= t.first then begin
    let no = pos lsr chunk_bits and off = pos land chunk_mask in
    let c = find_chunk t no in
    let c =
      if c != no_chunk then c
      else begin
        (* A dense log fills chunk after chunk: start at full size when
           the preceding chunk exists. *)
        let len =
          if Chunks.mem t.chunks (no - 1) then chunk_size else initial_slots
        in
        let c = { slots = Array.make len absent; live = 0 } in
        Chunks.replace t.chunks no c;
        t.cached_no <- no;
        t.cached <- c;
        c
      end
    in
    if off >= Array.length c.slots then grow c off;
    if Array.unsafe_get c.slots off == absent then c.live <- c.live + 1;
    Array.unsafe_set c.slots off (Obj.repr v);
    if pos >= t.next then t.next <- pos + 1
  end

let append t v =
  let pos = t.next in
  set t pos v;
  pos

(* The slot at [pos], or [absent]: the lookups below share it and
   allocate nothing. *)
let slot t pos =
  if pos < t.first || pos >= t.next then absent
  else
    let c = find_chunk t (pos lsr chunk_bits) and off = pos land chunk_mask in
    if off >= Array.length c.slots then absent else Array.unsafe_get c.slots off

let get t pos =
  let v = slot t pos in
  if v == absent then None else Some (Obj.obj v)

let mem t pos = slot t pos != absent

let find t pos =
  let v = slot t pos in
  if v == absent then raise Not_found else Obj.obj v

let length t = t.next

let first t = t.first

let clear_slot t no c off =
  if off < Array.length c.slots && c.slots.(off) != absent then begin
    c.slots.(off) <- absent;
    c.live <- c.live - 1;
    if c.live = 0 then drop_chunk t no
  end

let remove t pos =
  let no = pos lsr chunk_bits in
  clear_slot t no (find_chunk t no) (pos land chunk_mask)

(* Numbers of the chunks that exist and overlap [from, upto), ascending. *)
let chunks_in t ~from ~upto =
  let lo = from lsr chunk_bits and hi = (upto - 1) lsr chunk_bits in
  if hi - lo >= Chunks.length t.chunks then
    List.sort Int.compare
      (Chunks.fold
         (fun no _ acc -> if no >= lo && no <= hi then no :: acc else acc)
         t.chunks [])
  else begin
    let acc = ref [] in
    for no = hi downto lo do
      if Chunks.mem t.chunks no then acc := no :: !acc
    done;
    !acc
  end

let remove_range t ~from ~upto =
  List.iter
    (fun no ->
      let base = no lsl chunk_bits in
      if from <= base && base + chunk_size <= upto then drop_chunk t no
      else
        let c = Chunks.find t.chunks no in
        let hi = min (upto - base) chunk_size in
        for off = max from base - base to hi - 1 do
          clear_slot t no c off
        done)
    (chunks_in t ~from ~upto)

let truncate t n =
  let n = if n < t.first then t.first else n in
  if n < t.next then begin
    remove_range t ~from:n ~upto:t.next;
    t.next <- n
  end

let trim t n =
  let n = if n > t.next then t.next else n in
  if n > t.first then begin
    remove_range t ~from:t.first ~upto:n;
    t.first <- n
  end

let iter ?(upto = max_int) t ~from f =
  let from = if from < t.first then t.first else from in
  let upto = if upto > t.next then t.next else upto in
  if from < upto then
    List.iter
      (fun no ->
        match Chunks.find_opt t.chunks no with
        | None -> ()
        | Some c ->
          let base = no lsl chunk_bits in
          let hi = min (upto - base) (Array.length c.slots) in
          for off = max from base - base to hi - 1 do
            let v = c.slots.(off) in
            if v != absent then f (base + off) (Obj.obj v)
          done)
      (chunks_in t ~from ~upto)

let to_list t =
  let acc = ref [] in
  iter t ~from:t.first (fun pos v -> acc := (pos, v) :: !acc);
  List.rev !acc
