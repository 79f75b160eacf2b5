open Ll_sim

(* Live entries sit on a flat ring, the paper's head/tail ring buffer:
   slot [s] lives at [ring.(s land (length - 1))] and a removed one holds
   [hole]. Removals come out of order (a follower drops whatever batch the
   leader ordered), so the ring is sized by the span [next - first], not
   by the live count, and doubles when an append would wrap onto
   [first]. *)
type t = {
  capacity : int;
  mutable ring : Types.entry array;
  by_rid : Int_table.t;  (* packed live rid -> slot *)
  ordered_seq : Int_table.t;  (* client -> max ordered seq *)
  mutable first : int;  (* lowest possibly-live slot *)
  mutable next : int;  (* next slot *)
  mutable live : int;  (* live entries, all logs *)
  (* The paper's last-ordered-gp, one per log (packed positions,
     {!Logid}), and each log's share of [live]. *)
  frontiers : Log_table.t;
  log_live : Log_table.t;
  (* Pipelined ordering: slots below [claimed] belong to an in-flight
     ordering batch and must not be claimed again; [claimed_live] counts
     the live entries among them. *)
  mutable claimed : int;
  mutable claimed_live : int;
  space : Waitq.t;
}

(* Physically unique, so no appended entry is ever mistaken for it. *)
let hole =
  Types.Data
    (Types.record ~rid:{ Types.Rid.client = min_int; seq = min_int } ~size:0 ())

let initial_ring = 64

(* A rid as one non-negative int for [by_rid]: client and seq each shifted
   by one, so the no-op rid [{-1, -1}] packs to 0 and aliases no real
   rid. *)
let seq_bits = 32

let pack (rid : Types.Rid.t) =
  if
    rid.client < -1
    || rid.client >= (1 lsl (62 - seq_bits)) - 1
    || rid.seq < -1
    || rid.seq >= (1 lsl seq_bits) - 1
  then invalid_arg "Seq_log: rid out of range";
  ((rid.client + 1) lsl seq_bits) lor (rid.seq + 1)

let create ~capacity =
  {
    capacity;
    ring = Array.make initial_ring hole;
    by_rid = Int_table.create 64;
    ordered_seq = Int_table.create 64;
    first = 0;
    next = 0;
    live = 0;
    frontiers = Log_table.create ~default:(fun log -> Logid.base ~log);
    log_live = Log_table.create ~default:(fun _ -> 0);
    claimed = 0;
    claimed_live = 0;
    space = Waitq.create ();
  }

type append_result = Appended | Duplicate

let already_ordered t (rid : Types.Rid.t) =
  rid.seq <= Int_table.find t.ordered_seq rid.client ~default:min_int

let live_slot t rid = Int_table.find t.by_rid (pack rid) ~default:(-1)

let is_duplicate t rid = live_slot t rid >= 0 || already_ordered t rid

let bump_live t lg d = Log_table.add t.log_live lg d

let entry_at t slot =
  Array.unsafe_get t.ring (slot land (Array.length t.ring - 1))

(* Double the ring, re-placing the span [first, next). *)
let grow t =
  let old = t.ring in
  let ring = Array.make (2 * Array.length old) hole in
  for slot = t.first to t.next - 1 do
    ring.(slot land (Array.length ring - 1)) <-
      old.(slot land (Array.length old - 1))
  done;
  t.ring <- ring

let do_append t e =
  let slot = t.next in
  if slot - t.first >= Array.length t.ring then grow t;
  t.ring.(slot land (Array.length t.ring - 1)) <- e;
  (* Callers filter duplicates first, so the rid is not live yet. *)
  ignore (Int_table.slot t.by_rid (pack (Types.entry_rid e)) ~absent:slot);
  t.next <- slot + 1;
  t.live <- t.live + 1;
  bump_live t (Types.entry_log e) 1

let try_append t e =
  let rid = Types.entry_rid e in
  if is_duplicate t rid then Some Duplicate
  else if t.live >= t.capacity then None
  else begin
    do_append t e;
    Some Appended
  end

let append_wait t e =
  let rid = Types.entry_rid e in
  if is_duplicate t rid then Duplicate
  else begin
    Waitq.await t.space (fun () -> t.live < t.capacity || is_duplicate t rid);
    if is_duplicate t rid then Duplicate
    else begin
      do_append t e;
      Appended
    end
  end

(* Capacity an admission needs: the entries that are not duplicates. *)
let rec count_fresh t entries n =
  match entries with
  | [] -> n
  | e :: rest ->
    count_fresh t rest
      (if is_duplicate t (Types.entry_rid e) then n else n + 1)

(* One pass: a rid appearing twice in [entries] registers on the first
   occurrence and filters the second. *)
let rec append_fresh t = function
  | [] -> ()
  | e :: rest ->
    if not (is_duplicate t (Types.entry_rid e)) then do_append t e;
    append_fresh t rest

let fits t entries = t.live + count_fresh t entries 0 <= t.capacity

let admissible t entries ~cancel = cancel () || fits t entries

(* Append ingress, one entry or a linger batch alike: the entries are
   admitted atomically. We wait until the log has room for every fresh
   entry (so a batch never half-appends under backpressure), then append
   them back-to-back. Entries that are all already known ack without
   appending, even once [cancel] holds (they are durable here already);
   otherwise cancellation (seal / view change) while waiting fails the
   entries as a unit. Assumes the entries are far fewer than [capacity]
   (the batcher's flush triggers bound them). *)
let append_or_wait t entries ~cancel =
  if not (admissible t entries ~cancel) then
    Waitq.await t.space (fun () -> admissible t entries ~cancel);
  if cancel () then count_fresh t entries 0 = 0
  else begin
    append_fresh t entries;
    true
  end

let try_admit t entries =
  fits t entries
  && begin
       append_fresh t entries;
       true
     end

let kick t = Waitq.broadcast t.space

let unordered t =
  let acc = ref [] in
  for slot = t.next - 1 downto t.first do
    let e = entry_at t slot in
    if e != hole then acc := e :: !acc
  done;
  !acc

let live_count t = t.live

let unclaimed_count t = t.live - t.claimed_live

(* Claim up to [max] live entries for an in-flight ordering batch, in log
   order, starting after the previous claim. Returns an array (the
   orderer's hot path): one bounded scan, no list rebuild. Claimed entries
   stay live (they still hold capacity and are returned by {!unordered}
   for recovery flushes) but later claims skip them. *)
let claim_unordered t ~max =
  let start = if t.claimed < t.first then t.first else t.claimed in
  let avail = t.live - t.claimed_live in
  let want = if max < avail then max else avail in
  if want <= 0 then [||]
  else begin
    let out = Array.make want (Types.Data Types.no_op) in
    let taken = ref 0 in
    let slot = ref start in
    while !taken < want && !slot < t.next do
      let e = entry_at t !slot in
      if e != hole then begin
        out.(!taken) <- e;
        incr taken
      end;
      incr slot
    done;
    t.claimed <- !slot;
    t.claimed_live <- t.claimed_live + !taken;
    if !taken = want then out else Array.sub out 0 !taken
  end

let reset_claims t =
  t.claimed <- t.first;
  t.claimed_live <- 0

let note_ordered t (rid : Types.Rid.t) =
  if rid.client >= 0 then begin
    let s = Int_table.slot t.ordered_seq rid.client ~absent:min_int in
    if Int_table.value t.ordered_seq s < rid.seq then
      Int_table.set_value t.ordered_seq s rid.seq
  end

let advance_first t =
  while t.first < t.next && entry_at t t.first == hole do
    t.first <- t.first + 1
  done

let rec remove_all t = function
  | [] -> ()
  | rid :: rest ->
    note_ordered t rid;
    let key = pack rid in
    let slot = Int_table.find t.by_rid key ~default:(-1) in
    if slot >= 0 then begin
      let i = slot land (Array.length t.ring - 1) in
      bump_live t (Types.entry_log t.ring.(i)) (-1);
      t.ring.(i) <- hole;
      Int_table.remove t.by_rid key;
      t.live <- t.live - 1;
      if slot < t.claimed then t.claimed_live <- t.claimed_live - 1
    end;
    remove_all t rest

let remove_ordered t rids =
  remove_all t rids;
  advance_first t;
  Waitq.broadcast t.space

let mark_ordered t rids = List.iter (note_ordered t) rids

let clear t =
  for slot = t.first to t.next - 1 do
    t.ring.(slot land (Array.length t.ring - 1)) <- hole
  done;
  Int_table.clear t.by_rid;
  t.live <- 0;
  Log_table.reset t.log_live;
  t.first <- t.next;
  t.claimed <- t.next;
  t.claimed_live <- 0;
  Waitq.broadcast t.space

let frontiers t = t.frontiers

let last_ordered_gp t ~log = Log_table.get t.frontiers log

let live_count_for t ~log = Log_table.get t.log_live log

let mem t rid = live_slot t rid >= 0

let known t rid = is_duplicate t rid
