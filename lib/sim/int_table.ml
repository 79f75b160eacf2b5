(* Slot i occupies data.(2i) (key) and data.(2i + 1) (value); a free slot
   holds [empty] as its key. The load factor stays at most 1/2, so probe
   chains are short and every probe loop meets a free slot. *)

let empty = -1

type t = {
  mutable data : int array;
  mutable mask : int;  (* slots - 1; slots is a power of two *)
  mutable size : int;
}

(* Fold the high bits down, multiply by an odd constant, fold again: both
   halves of a packed (a lsl 20) lor b key reach the low bits the mask
   keeps. *)
let[@inline] home mask k =
  let h = (k lxor (k lsr 31)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land mask

let create n =
  let slots = ref 8 in
  while !slots < 2 * n do
    slots := 2 * !slots
  done;
  { data = Array.make (2 * !slots) empty; mask = !slots - 1; size = 0 }

let length t = t.size

(* Index of [k]'s slot, or of the free slot that ends its probe chain. *)
let[@inline] probe t k =
  let data = t.data and mask = t.mask in
  let i = ref (home mask k) in
  while
    let key = Array.unsafe_get data (2 * !i) in
    key <> k && key <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let find t k ~default =
  if k < 0 then default
  else
    let i = probe t k in
    if Array.unsafe_get t.data (2 * i) = k then
      Array.unsafe_get t.data ((2 * i) + 1)
    else default

let grow t =
  let old = t.data in
  let slots = 2 * (t.mask + 1) in
  t.data <- Array.make (2 * slots) empty;
  t.mask <- slots - 1;
  for j = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * j) in
    if k <> empty then begin
      let i = probe t k in
      t.data.(2 * i) <- k;
      t.data.((2 * i) + 1) <- old.((2 * j) + 1)
    end
  done

let slot t k ~absent =
  if k < 0 then invalid_arg "Int_table: negative key";
  let i = probe t k in
  if Array.unsafe_get t.data (2 * i) = k then i
  else begin
    let i =
      if 2 * (t.size + 1) <= t.mask + 1 then i
      else begin
        grow t;
        probe t k
      end
    in
    t.data.(2 * i) <- k;
    t.data.((2 * i) + 1) <- absent;
    t.size <- t.size + 1;
    i
  end

let value t i = t.data.((2 * i) + 1)

let set_value t i v = t.data.((2 * i) + 1) <- v

(* Backward-shift deletion: walk the chain after the hole and pull back
   every entry whose home slot does not lie cyclically in (hole, j], so
   each remaining key stays reachable from its home without tombstones. *)
let remove t k =
  if k >= 0 then begin
    let data = t.data and mask = t.mask in
    let i = probe t k in
    if data.(2 * i) = k then begin
      let hole = ref i in
      let j = ref ((i + 1) land mask) in
      while data.(2 * !j) <> empty do
        let h = home mask data.(2 * !j) in
        let stays =
          if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
        in
        if not stays then begin
          data.(2 * !hole) <- data.(2 * !j);
          data.((2 * !hole) + 1) <- data.((2 * !j) + 1);
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      data.(2 * !hole) <- empty;
      t.size <- t.size - 1
    end
  end

let fold_keys t f acc =
  let data = t.data in
  let acc = ref acc in
  for i = 0 to (Array.length data / 2) - 1 do
    let k = data.(2 * i) in
    if k <> empty then acc := f k !acc
  done;
  !acc

let clear t =
  if t.size > 0 then begin
    Array.fill t.data 0 (Array.length t.data) empty;
    t.size <- 0
  end
