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
      space = Waitq.create ();
      drained = Waitq.create ();
      work = Waitq.create ();
    }
  in
  Engine.spawn ~name:"store.flusher" (flusher t);
  t

let stage t ~pos ~size v =
  Mem_log.set t.log pos v;
  push_dirty t size;
  t.dirty_bytes <- t.dirty_bytes + size

let has_room t = t.dirty_bytes < t.dirty_limit

(* Blocks while the dirty buffer is at its limit; the predicate closure
   is built only when there is something to wait for. *)
let wait_space t =
  if not (has_room t) then Waitq.await t.space (fun () -> has_room t)

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

let set_mem t ~pos v = Mem_log.set t.log pos v

let read t ~pos = Mem_log.get t.log pos

let rec read_many t = function
  | [] -> []
  | pos :: rest ->
    if Mem_log.mem t.log pos then (pos, Mem_log.find t.log pos) :: read_many t rest
    else read_many t rest

let length t = Mem_log.length t.log

let truncate t n = Mem_log.truncate t.log n

let remove t ~pos = Mem_log.remove t.log pos

let trim t n = Mem_log.trim t.log n

let dirty_bytes t = t.dirty_bytes

let flush_wait t = Waitq.await t.drained (fun () -> t.dirty_len = 0)

let entries t = Mem_log.to_list t.log

let entries_from ?upto t from =
  let acc = ref [] in
  Mem_log.iter ?upto t.log ~from (fun pos v -> acc := (pos, v) :: !acc);
  List.rev !acc
