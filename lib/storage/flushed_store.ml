open Ll_sim

type 'a t = {
  disk : Disk.t;
  dirty_limit : int;
  entries_per_file : int;
  log : 'a Mem_log.t;
  (* Sizes of the staged entries not yet on the device, oldest first: a
     ring of [dirty_len] ints from [dirty_head], doubled when full, so its
     length stays a power of two. The values themselves are already in
     [log]. *)
  mutable dirty : int array;
  mutable dirty_head : int;
  mutable dirty_len : int;
  mutable dirty_bytes : int;
  seg_bytes : Int_table.t;  (* segment -> bytes staged into it *)
  cached : (int, unit) Hashtbl.t;
  space : Waitq.t;  (* dirty buffer below limit *)
  drained : Waitq.t;  (* dirty buffer empty *)
  work : Waitq.t;  (* dirty buffer non-empty *)
}

let push_dirty t size =
  let cap = Array.length t.dirty in
  if t.dirty_len = cap then begin
    let ring = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      ring.(i) <- t.dirty.((t.dirty_head + i) land (cap - 1))
    done;
    t.dirty <- ring;
    t.dirty_head <- 0
  end;
  let mask = Array.length t.dirty - 1 in
  t.dirty.((t.dirty_head + t.dirty_len) land mask) <- size;
  t.dirty_len <- t.dirty_len + 1

let pop_dirty t =
  let size = t.dirty.(t.dirty_head) in
  t.dirty_head <- (t.dirty_head + 1) land (Array.length t.dirty - 1);
  t.dirty_len <- t.dirty_len - 1;
  size

let flusher t () =
  let rec loop () =
    Waitq.await t.work (fun () -> t.dirty_len > 0);
    (* Drain up to one segment file's worth per device operation: batched
       writes amortize the device base latency like group commit. *)
    let batch_bytes = ref 0 in
    let batch_count = ref 0 in
    while t.dirty_len > 0 && !batch_count < t.entries_per_file do
      batch_bytes := !batch_bytes + pop_dirty t;
      incr batch_count
    done;
    Disk.write t.disk ~bytes:!batch_bytes;
    t.dirty_bytes <- t.dirty_bytes - !batch_bytes;
    Waitq.broadcast t.space;
    if t.dirty_len = 0 then Waitq.broadcast t.drained;
    loop ()
  in
  loop ()

let create ~disk ?(dirty_limit_bytes = 8 * 1024 * 1024)
    ?(entries_per_file = 1024) () =
  let t =
    {
      disk;
      dirty_limit = dirty_limit_bytes;
      entries_per_file;
      log = Mem_log.create ();
      dirty = Array.make 64 0;
      dirty_head = 0;
      dirty_len = 0;
      dirty_bytes = 0;
      seg_bytes = Int_table.create 64;
      cached = Hashtbl.create 64;
      space = Waitq.create ();
      drained = Waitq.create ();
      work = Waitq.create ();
    }
  in
  Engine.spawn ~name:"store.flusher" (flusher t);
  t

let segment t pos = pos / t.entries_per_file

let stage t ~pos ~size v =
  Mem_log.set t.log pos v;
  let seg = segment t pos in
  let s = Int_table.slot t.seg_bytes seg ~absent:0 in
  Int_table.set_value t.seg_bytes s (Int_table.value t.seg_bytes s + size);
  Hashtbl.replace t.cached seg ();
  push_dirty t size;
  t.dirty_bytes <- t.dirty_bytes + size

(* Blocks while the dirty buffer is at its limit; the predicate closure
   is built only when there is something to wait for. *)
let wait_space t =
  if t.dirty_bytes >= t.dirty_limit then
    Waitq.await t.space (fun () -> t.dirty_bytes < t.dirty_limit)

let append t ~pos ~size v =
  wait_space t;
  stage t ~pos ~size v;
  Waitq.broadcast t.work

let append_batch t batch =
  match batch with
  | [] -> ()
  | _ ->
    wait_space t;
    List.iter (fun (pos, size, v) -> stage t ~pos ~size v) batch;
    Waitq.broadcast t.work

let set_mem t ~pos v =
  Mem_log.set t.log pos v;
  Hashtbl.replace t.cached (segment t pos) ()

let segment_bytes t seg = Int_table.find t.seg_bytes seg ~default:0

let read t ~pos =
  match Mem_log.get t.log pos with
  | None -> None
  | Some _ as v ->
    let seg = segment t pos in
    if not (Hashtbl.mem t.cached seg) then begin
      Disk.read t.disk ~bytes:(segment_bytes t seg);
      Hashtbl.replace t.cached seg ()
    end;
    v

let rec present t = function
  | [] -> []
  | pos :: rest ->
    if Mem_log.mem t.log pos then
      (pos, Mem_log.find t.log pos) :: present t rest
    else present t rest

(* The distinct uncached segments under [hits], added to [acc]. *)
let rec cold_segments t acc = function
  | [] -> acc
  | (pos, _) :: rest ->
    let seg = segment t pos in
    if Hashtbl.mem t.cached seg || List.mem seg acc then
      cold_segments t acc rest
    else cold_segments t (seg :: acc) rest

(* Batched read fast path: the cold segments the hits touch pay a single
   device read for their combined bytes — the device base cost amortizes
   across the group, mirroring what the flusher does on the write side. A
   group whose segments are all cached allocates only its hits. *)
let read_many t positions =
  let hits = present t positions in
  (match cold_segments t [] hits with
  | [] -> ()
  | cold ->
    Disk.read t.disk
      ~bytes:(List.fold_left (fun acc seg -> acc + segment_bytes t seg) 0 cold);
    List.iter (fun seg -> Hashtbl.replace t.cached seg ()) cold);
  hits

let mem_read t ~pos = Mem_log.get t.log pos

let length t = Mem_log.length t.log

let truncate t n = Mem_log.truncate t.log n

let remove t ~pos = Mem_log.remove t.log pos

let trim t n = Mem_log.trim t.log n

let dirty_bytes t = t.dirty_bytes

let evict_cache t = Hashtbl.reset t.cached

let flush_wait t = Waitq.await t.drained (fun () -> t.dirty_len = 0)

let entries t = Mem_log.to_list t.log

let entries_from ?upto t from =
  let acc = ref [] in
  Mem_log.iter ?upto t.log ~from (fun pos v -> acc := (pos, v) :: !acc);
  List.rev !acc
