open Ll_sim
open Ll_net
open Ll_storage
open Erwin_common

let create ?(cfg = Config.default) () =
  let cluster = Erwin_common.create ~cfg ~mode:St in
  Orderer.start cluster;
  Reconfig.start cluster;
  List.iter
    (fun s -> Shard.start_scrubber s ~age:(Engine.ms 100) ~every:(Engine.ms 50))
    cluster.shards;
  cluster

(* A data write refused because the rid was no-op'ed is permanent: is
   one of the group's first [n] replies (the data writes) such a refusal? *)
let poisoned g n =
  let rec go m =
    m < n
    && ((match Rpc.group_reply g m with
        | Some (Proto.R_append { ok = false; view = 0 }) -> true
        | _ -> false)
       || go (m + 1))
  in
  go 0

(* One full append attempt: data to every replica of the chosen shard and
   metadata to every sequencing replica, all in parallel (1 RTT,
   section 5.1). [`Poisoned] means a shard replica already no-op'ed this
   rid (a too-late retry, section 5.4): retry with a fresh rid. *)
let try_append_once (cluster : Erwin_common.t) ep ~track record shard =
  let view = cluster.view in
  let timeout = cluster.cfg.Config.append_timeout in
  let linger = cluster.cfg.Config.linger in
  let data_req = Proto.Ssh_data_write { record } in
  let data_dsts = Shard.replica_ids shard in
  let ndata = List.length data_dsts in
  (* Without group commit, data and metadata share one group and one
     deadline; with it, the data writes join on their own. *)
  let g =
    Rpc.group ep
      (if Option.is_some linger then ndata
       else ndata + List.length cluster.replicas)
  in
  List.iter
    (fun dst -> Rpc.group_call g ~dst ~size:(Proto.req_size data_req) data_req)
    data_dsts;
  let meta : Types.entry =
    Types.Meta
      { rid = record.Types.rid; shard = Shard.shard_id shard;
        size = record.Types.size; log = record.Types.log }
  in
  match linger with
  | Some linger ->
    (* Group commit: the metadata entry rides the shared linger batch while
       the shard data writes are already in flight; both legs still overlap
       (the data RTT runs under the batch's linger + fan-out). A failed
       batch fails this attempt, and the retry re-sends data and metadata
       in lockstep — the shard stages the duplicate write idempotently. *)
    let meta_res =
      (Batcher.get cluster ~linger ~log:record.Types.log).submit_entry ~track
        meta
    in
    let fail () =
      match meta_res with `Fail v -> `Fail v | `Ok -> `Fail view
    in
    if not (Rpc.group_await g ~timeout) then fail ()
    else if Rpc.group_for_all g append_ok && meta_res = `Ok then `Ok
    else if poisoned g ndata then `Poisoned
    else fail ()
  | None ->
    seq_group_calls cluster g (Proto.append_one ~view ~track meta);
    if not (Rpc.group_await g ~timeout) then `Fail view
    else if Rpc.group_for_all g append_ok then `Ok
    else if poisoned g ndata then `Poisoned
    else `Fail view

(* Position-to-shard resolution through a cached map (section 5.3), plus
   the grouped shard reads behind it. Exported separately from [client] so
   non-client readers of bound positions — the subscription manager's
   fetch path in particular — share the exact same machinery. Every shard
   replica stores the full map chunk stream, so with [replica_reads] the
   fetches round-robin over every replica of every shard; otherwise they
   pin to the head shard's primary. [rr0] seeds the rotation so distinct
   readers interleave instead of marching in lockstep. The map cache is
   made at the first read: a handle that only appends holds none. *)
type map_reader = {
  m_cluster : Erwin_common.t;
  m_ep : Client_core.ep;
  mutable map_cache : int Mem_log.t option;
  map_rr : int ref;
}

let fetch_map_chunk r dst ~tries req =
  let g =
    Rpc.fan_out r.m_ep [ dst ] ~round:(Engine.ms 50) ~tries
      ~backoff:(Engine.us 50) ~size:(Proto.req_size req) req
  in
  ignore (Rpc.group_join g : bool);
  match Rpc.group_reply g 0 with
  | Some (Proto.R_map { chunk; stable }) ->
    Client_core.note_piggyback r.m_cluster stable;
    Some chunk
  | Some _ | None -> None

(* Positions fetched per [Ssh_get_map] on a map-cache miss. *)
let map_fetch_chunk = 1024

let rec ensure_mapped r cache positions =
  match List.find_opt (fun p -> not (Mem_log.mem cache p)) positions with
  | None -> ()
  | Some missing ->
    let cluster = r.m_cluster in
    let req =
      Proto.Ssh_get_map
        {
          from = missing;
          count = map_fetch_chunk;
          stable_hint = stable_for cluster ~log:(Logid.log_of missing);
        }
    in
    let head_primary = Shard.primary_id (List.hd cluster.shards) in
    let chunk =
      if cluster.cfg.Config.replica_reads then begin
        let all =
          Array.of_list (List.concat_map Shard.replica_ids cluster.shards)
        in
        let dst = all.(!(r.map_rr) mod Array.length all) in
        incr r.map_rr;
        match fetch_map_chunk r dst ~tries:25 req with
        | Some c -> c
        | None -> (
          (* The picked replica is unreachable (or kept failing the
             forward): fall back to the head primary before giving up. *)
          match
            if dst = head_primary then None
            else fetch_map_chunk r head_primary ~tries:25 req
          with
          | Some c -> c
          | None -> failwith "erwin-st: map fetch failed on every replica")
      end
      else
        match fetch_map_chunk r head_primary ~tries:100 req with
        | Some c -> c
        | None -> failwith "erwin-st: bad map response"
    in
    List.iter (fun (gp, sid) -> Mem_log.set cache gp sid) chunk;
    ensure_mapped r cache positions

let read_mapped r positions =
  let cache =
    match r.map_cache with
    | Some c -> c
    | None ->
      let c = Mem_log.create () in
      r.map_cache <- Some c;
      c
  in
  ensure_mapped r cache positions;
  Client_core.read_grouped ~rr:r.map_rr r.m_cluster r.m_ep
    ~shard_of:(fun p -> shard_by_id r.m_cluster (Mem_log.find cache p))
    positions

let reader (cluster : Erwin_common.t) ep ~rr0 =
  let r =
    { m_cluster = cluster; m_ep = ep; map_cache = None; map_rr = ref rr0 }
  in
  fun positions -> read_mapped r positions

(* A client handle's state: each closure of its [Log_api.t] closes over
   this one record. *)
type handle = {
  cluster : Erwin_common.t;
  ep : Client_core.ep;
  cid : int;
  log : int;
  mutable seq : int;
  mutable rr : int;  (* shard rotation for appends, from the client id *)
  (* The read path; its map rotation is seeded separately from [rr],
     which also decides record placement and must not be perturbed by
     reads. *)
  fetch : int list -> (int * Types.record) list;
}

let next_rid h =
  h.seq <- h.seq + 1;
  { Types.Rid.client = h.cid; seq = h.seq }

let pick_shard h =
  let n = Array.length h.cluster.shard_index in
  let s = shard_by_id h.cluster (h.rr mod n) in
  h.rr <- h.rr + 1;
  s

(* A rid is pinned to its shard across [`Fail] retries: the ordered
   metadata names that shard, so retrying elsewhere would let the
   original shard no-op the binding while a duplicate-filtered meta ack
   makes the retry look successful — losing an acked record. Only a
   fresh rid (after [`Poisoned]) picks a new shard. *)
let rec append_attempt h ~track record shard =
  match try_append_once h.cluster h.ep ~track record shard with
  | `Ok ->
    if Probe.active () then
      Probe.emit (Probe.Append_acked { rid = record.Types.rid });
    record.Types.rid
  | `Poisoned ->
    (* Never acked, so appending again under a fresh rid is safe. *)
    let record = { record with Types.rid = next_rid h } in
    if Probe.active () then
      Probe.emit (Probe.Append_invoked { rid = record.Types.rid });
    append_attempt h ~track record (pick_shard h)
  | `Fail view ->
    Client_core.await_view_after h.cluster view;
    (* debug_no_rid_pinning deliberately breaks the pinning above: the
       checker's known-bad configuration. *)
    let shard =
      if h.cluster.cfg.Config.debug_no_rid_pinning then pick_shard h
      else shard
    in
    append_attempt h ~track record shard

let append_record h ~track record =
  if Probe.active () then
    Probe.emit (Probe.Append_invoked { rid = record.Types.rid });
  append_attempt h ~track record (pick_shard h)

let append h ~size ~data =
  let r = Types.record ~rid:(next_rid h) ~size ~data ~log:h.log () in
  ignore (append_record h ~track:false r : Types.Rid.t);
  true

let append_sync h ~size ~data =
  let r = Types.record ~rid:(next_rid h) ~size ~data ~log:h.log () in
  let rid = append_record h ~track:true r in
  Logid.pos_of (Client_core.wait_ordered h.cluster h.ep rid)

(* Per-log positions are contiguous in the packed keyspace, so packing
   [from] once covers the whole window (see {!Logid}). *)
let read h ~from ~len =
  if len = 0 then []
  else
    let from = Logid.pack ~log:h.log from in
    List.map snd (h.fetch (List.init len (fun i -> from + i)))

let client ?(log = 0) (cluster : Erwin_common.t) : Log_api.t =
  let cid = fresh_client_id cluster in
  let ep = new_endpoint cluster ~name:(Printf.sprintf "st-client%d" cid) in
  let h =
    { cluster; ep; cid; log; seq = 0; rr = cid;
      fetch = reader cluster ep ~rr0:cid }
  in
  {
    Log_api.name = "erwin-st";
    append = (fun ~size ~data -> append h ~size ~data);
    read = (fun ~from ~len -> read h ~from ~len);
    check_tail = (fun () -> Client_core.check_tail ~log:h.log h.cluster h.ep);
    trim =
      (fun ~upto ->
        if h.log = 0 then Client_core.trim_all h.cluster h.ep ~upto else false);
    append_sync = Some (fun ~size ~data -> append_sync h ~size ~data);
  }
