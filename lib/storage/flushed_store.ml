open Ll_sim

type 'a t = {
  disk : Disk.t;
  dirty_limit : int;
  entries_per_file : int;
  log : ('a * int) Mem_log.t;
  dirty : (int * int) Queue.t;  (* pos, size — values already in [log] *)
  mutable dirty_bytes : int;
  seg_bytes : (int, int ref) Hashtbl.t;
  cached : (int, unit) Hashtbl.t;
  space : Waitq.t;  (* dirty buffer below limit *)
  drained : Waitq.t;  (* dirty buffer empty *)
  work : Waitq.t;  (* dirty buffer non-empty *)
}

let flusher t () =
  let rec loop () =
    Waitq.await t.work (fun () -> not (Queue.is_empty t.dirty));
    (* Drain up to one segment file's worth per device operation: batched
       writes amortize the device base latency like group commit. *)
    let batch_bytes = ref 0 in
    let batch_count = ref 0 in
    while
      (not (Queue.is_empty t.dirty)) && !batch_count < t.entries_per_file
    do
      let _pos, size = Queue.pop t.dirty in
      batch_bytes := !batch_bytes + size;
      incr batch_count
    done;
    Disk.write t.disk ~bytes:!batch_bytes;
    t.dirty_bytes <- t.dirty_bytes - !batch_bytes;
    Waitq.broadcast t.space;
    if Queue.is_empty t.dirty then Waitq.broadcast t.drained;
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
      dirty = Queue.create ();
      dirty_bytes = 0;
      seg_bytes = Hashtbl.create 64;
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
  Mem_log.set t.log pos (v, size);
  let seg = segment t pos in
  (match Hashtbl.find_opt t.seg_bytes seg with
  | Some r -> r := !r + size
  | None -> Hashtbl.add t.seg_bytes seg (ref size));
  Hashtbl.replace t.cached seg ();
  Queue.push (pos, size) t.dirty;
  t.dirty_bytes <- t.dirty_bytes + size

let append t ~pos ~size v =
  Waitq.await t.space (fun () -> t.dirty_bytes < t.dirty_limit);
  stage t ~pos ~size v;
  Waitq.broadcast t.work

let append_batch t batch =
  match batch with
  | [] -> ()
  | _ ->
    Waitq.await t.space (fun () -> t.dirty_bytes < t.dirty_limit);
    List.iter (fun (pos, size, v) -> stage t ~pos ~size v) batch;
    Waitq.broadcast t.work

let set_mem t ~pos v =
  Mem_log.set t.log pos (v, 0);
  Hashtbl.replace t.cached (segment t pos) ()

let read t ~pos =
  match Mem_log.get t.log pos with
  | None -> None
  | Some (v, _) ->
    let seg = segment t pos in
    if not (Hashtbl.mem t.cached seg) then begin
      let bytes =
        match Hashtbl.find_opt t.seg_bytes seg with Some r -> !r | None -> 0
      in
      Disk.read t.disk ~bytes;
      Hashtbl.replace t.cached seg ()
    end;
    Some v

(* Batched read fast path: one pass collects the hits and the distinct
   cold segments they touch, then the cold segments pay a single device
   read for their combined bytes — the device base cost amortizes across
   the group, mirroring what the flusher does on the write side. *)
let read_many t positions =
  let cold : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let cold_bytes = ref 0 in
  let hits =
    List.filter_map
      (fun pos ->
        match Mem_log.get t.log pos with
        | None -> None
        | Some (v, _) ->
          let seg = segment t pos in
          if not (Hashtbl.mem t.cached seg || Hashtbl.mem cold seg) then begin
            Hashtbl.add cold seg ();
            match Hashtbl.find_opt t.seg_bytes seg with
            | Some r -> cold_bytes := !cold_bytes + !r
            | None -> ()
          end;
          Some (pos, v))
      positions
  in
  if Hashtbl.length cold > 0 then begin
    Disk.read t.disk ~bytes:!cold_bytes;
    Hashtbl.iter (fun seg () -> Hashtbl.replace t.cached seg ()) cold
  end;
  hits

let mem_read t ~pos =
  match Mem_log.get t.log pos with Some (v, _) -> Some v | None -> None

let length t = Mem_log.length t.log

let truncate t n = Mem_log.truncate t.log n

let remove t ~pos = Mem_log.remove t.log pos

let trim t n = Mem_log.trim t.log n

let dirty_bytes t = t.dirty_bytes

let evict_cache t = Hashtbl.reset t.cached

let flush_wait t = Waitq.await t.drained (fun () -> Queue.is_empty t.dirty)

let entries t = List.map (fun (pos, (v, _)) -> (pos, v)) (Mem_log.to_list t.log)

let entries_from ?upto t from =
  let acc = ref [] in
  Mem_log.iter ?upto t.log ~from (fun pos (v, _) -> acc := (pos, v) :: !acc);
  List.rev !acc
