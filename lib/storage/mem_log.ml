(* Backed by a Hashtbl keyed by absolute position: trim and truncate are
   then O(removed), and sparse inspection is easy. Positions are dense
   between [first] and [length] on the single-log path; the multi-log
   fabric packs a log id into the high bits of each position, making the
   keyspace sparse over a 2^40-per-log span — every range operation
   therefore falls back to walking the table when the dense range is much
   wider than the population, instead of looping over the span. *)

type 'a t = {
  entries : (int, 'a) Hashtbl.t;
  mutable first : int;
  mutable next : int;
}

let create () = { entries = Hashtbl.create 256; first = 0; next = 0 }

let append t v =
  let pos = t.next in
  Hashtbl.replace t.entries pos v;
  t.next <- pos + 1;
  pos

let set t pos v =
  if pos < 0 then invalid_arg "Mem_log.set: negative position";
  Hashtbl.replace t.entries pos v;
  if pos >= t.next then t.next <- pos + 1

let get t pos =
  if pos < t.first || pos >= t.next then None
  else Hashtbl.find_opt t.entries pos

let length t = t.next

let first t = t.first

let remove t pos = Hashtbl.remove t.entries pos

(* Dense ranges walk positions; sparse ranges (packed multi-log keys)
   walk the table. The 4x slack keeps dense logs with a trimmed prefix or
   scattered holes on the cheap position loop. *)
let sparse t ~from ~upto =
  upto - from > 64 && upto - from > 4 * Hashtbl.length t.entries

let keys_in t ~from ~upto =
  Hashtbl.fold
    (fun pos _ acc -> if pos >= from && pos < upto then pos :: acc else acc)
    t.entries []

let truncate t n =
  let n = if n < t.first then t.first else n in
  if n < t.next then begin
    if sparse t ~from:n ~upto:t.next then
      List.iter (Hashtbl.remove t.entries) (keys_in t ~from:n ~upto:t.next)
    else
      for pos = n to t.next - 1 do
        Hashtbl.remove t.entries pos
      done;
    t.next <- n
  end

let trim t n =
  let n = if n > t.next then t.next else n in
  if n > t.first then begin
    if sparse t ~from:t.first ~upto:n then
      List.iter (Hashtbl.remove t.entries) (keys_in t ~from:t.first ~upto:n)
    else
      for pos = t.first to n - 1 do
        Hashtbl.remove t.entries pos
      done;
    t.first <- n
  end

let iter ?(upto = max_int) t ~from f =
  let from = if from < t.first then t.first else from in
  let upto = if upto > t.next then t.next else upto in
  if sparse t ~from ~upto then
    List.iter
      (fun pos -> f pos (Hashtbl.find t.entries pos))
      (List.sort compare (keys_in t ~from ~upto))
  else
    for pos = from to upto - 1 do
      match Hashtbl.find_opt t.entries pos with
      | Some v -> f pos v
      | None -> ()
    done

let to_list t =
  let acc = ref [] in
  iter t ~from:t.first (fun pos v -> acc := (pos, v) :: !acc);
  List.rev !acc
