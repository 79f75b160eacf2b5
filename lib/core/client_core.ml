open Ll_sim
open Ll_net
open Erwin_common

type ep = (Proto.req, Proto.resp) Rpc.endpoint

(* Arm the client endpoint's retry budget: retries (never first
   attempts) then draw from a token bucket refilled by successful first
   attempts, so a timeout storm degrades to load-shedding instead of a
   synchronized retry flood. *)
let install_retry_budget (cluster : t) ep =
  if cluster.cfg.Config.retry_budget then
    Rpc.set_retry_budget ep (Rpc.Retry_budget.create ())

let try_append_seq (cluster : t) ep ~view ~track entry =
  if seq_append cluster ep (Proto.append_one ~view ~track entry) then `Ok
  else `Fail view

let await_view_after (cluster : t) view =
  ignore
    (Waitq.await_timeout cluster.view_changed
       ~timeout:cluster.cfg.Config.append_timeout (fun () ->
         cluster.view > view)
      : bool)

let append_entry (cluster : t) ep ~track entry =
  if Probe.active () then
    Probe.emit (Probe.Append_invoked { rid = Types.entry_rid entry });
  let rec attempt () =
    (* Group commit hands the entry to the shared linger batcher and waits
       for its batch's fan-out ack. Retries re-coalesce into new batches;
       replicas that already hold the rid filter it as a duplicate. *)
    let res =
      match cluster.cfg.Config.linger with
      | Some linger ->
        (Batcher.get cluster ~linger ~log:(Types.entry_log entry)).submit_entry
          ~track entry
      | None -> try_append_seq cluster ep ~view:cluster.view ~track entry
    in
    match res with
    | `Ok ->
      if Probe.active () then
        Probe.emit (Probe.Append_acked { rid = Types.entry_rid entry })
    | `Fail view ->
      await_view_after cluster view;
      attempt ()
  in
  attempt ()

let check_tail ?(log = 0) (cluster : t) ep =
  let rec go () =
    let view = cluster.view in
    let ldr = leader cluster in
    match
      Rpc.call_timeout ep
        ~dst:(Seq_replica.node_id ldr)
        ~timeout:cluster.cfg.Config.append_timeout
        (Proto.Sr_check_tail { view; log })
    with
    | Some (Proto.R_tail { ok = true; tail }) -> tail
    | Some _ | None ->
      await_view_after cluster view;
      go ()
  in
  go ()

let wait_ordered (cluster : t) ep rid =
  let rec go () =
    let view = cluster.view in
    let ldr = leader cluster in
    match
      Rpc.call_timeout ep
        ~dst:(Seq_replica.node_id ldr)
        ~timeout:(Engine.ms 100)
        (Proto.Sr_wait_ordered { rid })
    with
    | Some (Proto.R_gp { gp }) -> gp
    | Some _ | None ->
      await_view_after cluster view;
      go ()
  in
  go ()

(* The tries of a read plan's head: every shard has
   [shard_backup_count] backups, so every plan's head has the same. *)
let head_tries (cluster : t) =
  let cfg = cluster.cfg in
  if cfg.Config.replica_reads && cfg.Config.shard_backup_count > 0 then 25
  else 100

(* One (destination, tries) plan per shard read. With [replica_reads]
   the plan rotates over every replica of the shard ([rr] staggers the
   starting replica across calls, so concurrent readers spread load);
   otherwise it is the primary with the legacy retry budget, with the
   backups as a last-resort fallback once the primary is exhausted. *)
let read_plan (cluster : t) ?rr shard =
  let tries = head_tries cluster in
  if cluster.cfg.Config.replica_reads then begin
    let ids = Array.of_list (Shard.replica_ids shard) in
    let n = Array.length ids in
    let start =
      match rr with
      | Some r ->
        let s = !r mod n in
        incr r;
        s
      | None -> 0
    in
    List.init n (fun i -> (ids.((start + i) mod n), tries))
  end
  else
    (Shard.primary_id shard, tries)
    :: List.map (fun b -> (b, 3)) (Shard.backup_ids shard)

(* Piggybacked stable bounds merge into their own log's frontier. *)
let note_piggyback (cluster : t) stable =
  ignore (note_stable_log cluster stable : bool)

(* Latency-outlier avoidance in the read plan (only with hedged reads
   on): a replica whose observed latency score exceeds 3x the plan's
   median moves to the back, so steady-state reads skip a fail-slow
   replica entirely and the hedge only pays for the cold start before
   the scores converge. Unsampled replicas are left in place (assumed
   healthy until measured), and healthy replicas keep their rotation
   order — the partition is stable. *)
let demote_slow_replicas ep plan =
  match plan with
  | [] | [ _ ] -> plan
  | _ -> (
    let scores = List.filter_map (fun (d, _) -> Rpc.peer_score ep d) plan in
    match scores with
    | [] | [ _ ] -> plan
    | _ ->
      let sorted = List.sort Float.compare scores in
      let median = List.nth sorted (List.length sorted / 2) in
      if median <= 0.0 then plan
      else
        let slow (d, _) =
          match Rpc.peer_score ep d with
          | Some s -> s > 3.0 *. median
          | None -> false
        in
        let healthy, outliers = List.partition (fun e -> not (slow e)) plan in
        healthy @ outliers)

(* One shard's read, walked along the rest of its plan after the head
   gave up or answered anything but records: [R_missing] from a backup
   means "could not serve, could not forward". *)
let rec read_rest ep req = function
  | [] -> None
  | (dst, tries) :: rest -> (
    let g =
      Rpc.fan_out ep [ dst ] ~round:(Engine.ms 50) ~tries
        ~backoff:(Engine.us 50) ~size:(Proto.req_size req) req
    in
    ignore (Rpc.group_join g : bool);
    match Rpc.group_reply g 0 with
    | Some (Proto.R_records _ as resp) -> Some resp
    | Some _ | None -> read_rest ep req rest)

let read_grouped ?rr (cluster : t) ep ~shard_of positions =
  (* Batched shard read: shard ids are dense, so group positions with two
     array passes (count, then fill into a pre-sized buffer per shard)
     instead of hashing into list refs — one allocation per involved
     shard, no per-position consing. *)
  let nshards = Array.length cluster.shard_index in
  let counts = Array.make nshards 0 in
  List.iter
    (fun p ->
      let sid = Shard.shard_id (shard_of p) in
      counts.(sid) <- counts.(sid) + 1)
    positions;
  let bufs =
    Array.init nshards (fun sid ->
        if counts.(sid) = 0 then [||] else Array.make counts.(sid) 0)
  in
  let fill = Array.make nshards 0 in
  List.iter
    (fun p ->
      let sid = Shard.shard_id (shard_of p) in
      bufs.(sid).(fill.(sid)) <- p;
      fill.(sid) <- fill.(sid) + 1)
    positions;
  (* One group, one member per involved shard sent to the head of its
     plan with the head's tries. With [hedge_floor] set (and a plan of at
     least two replicas) the member carries a hedge: if no reply lands
     within the adaptive deadline (lower median of the plan's latency
     scores, floored at [hedge_floor]) a second copy races to the plan's
     next replica, and the first reply wins. A fail-slow replica then
     costs about one deadline, not a 50 ms timeout. *)
  let involved =
    Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 counts
  in
  let g =
    Rpc.group ep involved ~round:(Engine.ms 50) ~tries:(head_tries cluster)
      ~backoff:(Engine.us 50)
  in
  let walks = ref [] in
  Array.iteri
    (fun sid buf ->
      if Array.length buf > 0 then begin
        let shard = shard_by_id cluster sid in
        let plan = read_plan cluster ?rr shard in
        let plan =
          if Option.is_some cluster.cfg.Config.hedge_floor then
            demote_slow_replicas ep plan
          else plan
        in
        let req =
          (* The hint carries the group's own log frontier (groups are
             log-homogeneous: a client reads one log). *)
          let hlog = if buf.(0) < 0 then 0 else Logid.log_of buf.(0) in
          Proto.Sh_read
            {
              positions = Array.to_list buf;
              stable_hint = stable_for cluster ~log:hlog;
            }
        in
        let hedge =
          match (cluster.cfg.Config.hedge_floor, plan) with
          | Some floor, _ :: (d2, _) :: _ ->
            Some (d2, Rpc.hedge_deadline ep ~dsts:(List.map fst plan) ~floor)
          | _ -> None
        in
        Rpc.group_call g ~dst:(fst (List.hd plan)) ~size:(Proto.req_size req)
          ?hedge req;
        walks := (req, List.tl plan) :: !walks
      end)
    bufs;
  ignore (Rpc.group_join g : bool);
  (* Only a member that gave up, or answered anything but records, walks
     the rest of its plan. Exhausting it is a failure, raised rather than
     mistaken for an empty log. [walks] runs from the last member. *)
  let records =
    List.concat
      (List.mapi
         (fun i (req, rest) ->
           let resp =
             match Rpc.group_reply g (involved - 1 - i) with
             | Some (Proto.R_records _) as resp -> resp
             | Some _ | None -> read_rest ep req rest
           in
           match resp with
           | Some (Proto.R_records { records; stable }) ->
             note_piggyback cluster stable;
             records
           | Some _ | None ->
             failwith "read_grouped: read failed on every replica of a shard")
         !walks)
  in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) records

(* ---------- scan readahead ----------

   A per-client prefetcher for [Log_api.read]: replay workloads (SMR, kv
   catch-up, wordcount) scan the log sequentially, so once the access
   pattern looks sequential the next [cfg.readahead] positions are
   fetched in the background while the consumer processes the current
   window. [fetch] is the system-specific blocking read (shard reads,
   plus map resolution for Erwin-st) — the prefetch fiber runs the whole
   thing, so Erwin-st's map fetches are issued ahead of the consumer
   too. With [readahead = 0] (the default) a handle has no prefetcher
   and every read is one synchronous [fetch] of its positions. *)

type prefetcher = {
  pf_cache : (int, Types.record) Hashtbl.t;  (* prefetched, not yet consumed *)
  mutable pf_inflight : (int * int * unit Ivar.t) option;  (* window [lo, hi) *)
  mutable pf_next : int;  (* the [from] a sequential reader would ask next *)
  mutable pf_frontier : int;  (* first position no fetch has covered yet *)
}

let prefetcher (cluster : t) =
  if cluster.cfg.Config.readahead <= 0 then None
  else
    Some
      {
        pf_cache = Hashtbl.create 8;
        pf_inflight = None;
        pf_next = 0;
        pf_frontier = 0;
      }

let readahead_read (cluster : t) pf ~fetch ~from ~len =
  let ra = cluster.cfg.Config.readahead in
  let sequential = from = pf.pf_next in
  pf.pf_next <- from + len;
  (* If an in-flight prefetch window overlaps this request, wait for it
     rather than racing a duplicate fetch for the same positions. *)
  (match pf.pf_inflight with
  | Some (lo, hi, iv) when from < hi && from + len > lo -> Ivar.read iv
  | _ -> ());
  let positions = List.init len (fun i -> from + i) in
  let missing =
    List.filter (fun p -> not (Hashtbl.mem pf.pf_cache p)) positions
  in
  if missing <> [] then
    List.iter
      (fun (gp, r) -> Hashtbl.replace pf.pf_cache gp r)
      (fetch missing);
  let out =
    List.filter_map
      (fun p ->
        match Hashtbl.find_opt pf.pf_cache p with
        | Some r ->
          Hashtbl.remove pf.pf_cache p;
          Some (p, r)
        | None -> None)
      positions
  in
  (* Keep the pipeline primed: on a sequential pattern, fetch the next
     window in the background. One window in flight at a time — the
     consumer's next call waits on it if it outruns the prefetcher. *)
  (if sequential && pf.pf_inflight = None then
     let lo = max (from + len) pf.pf_frontier in
     let hi = from + len + ra in
     if hi > lo then begin
       let iv = Ivar.create () in
       pf.pf_inflight <- Some (lo, hi, iv);
       pf.pf_frontier <- hi;
       Engine.spawn ~name:"client.readahead" (fun () ->
           (try
              List.iter
                (fun (gp, r) -> Hashtbl.replace pf.pf_cache gp r)
                (fetch (List.init (hi - lo) (fun i -> lo + i)))
            with _ ->
              (* A failed prefetch is not a failed read: the consumer
                 refetches the window itself and surfaces the error. *)
              ());
           pf.pf_inflight <- None;
           Ivar.fill iv ())
     end);
  out

let prefetched_read (cluster : t) pf ~fetch ~from ~len =
  match pf with
  | None -> if len = 0 then [] else fetch (List.init len (fun i -> from + i))
  | Some pf -> readahead_read cluster pf ~fetch ~from ~len

(* ---------- streaming subscriptions (lib/stream) ----------

   The client leg of the subscribe handshake. The push/ack traffic itself
   flows through the consumer's own endpoint handler (Ll_stream.Subscriber)
   — this is just the attach RPC, retried across manager restarts. *)

let subscribe_stream (cluster : t) ep ~manager ~name ~from ~window =
  let req = Proto.St_subscribe { name; endpoint = Rpc.endpoint_id ep; from; window } in
  let rec go () =
    let g =
      Rpc.fan_out ep [ manager ] ~round:cluster.cfg.Config.append_timeout
        ~tries:25 ~backoff:(Engine.us 50) ~size:(Proto.req_size req) req
    in
    ignore (Rpc.group_join g : bool);
    match Rpc.group_reply g 0 with
    | Some (Proto.R_sub { epoch; cursor }) -> (epoch, cursor)
    | Some _ | None ->
      Engine.sleep (Engine.ms 1);
      go ()
  in
  go ()

let trim_all (cluster : t) ep ~upto =
  let dsts = List.map Shard.primary_id cluster.shards in
  Rpc.group_join (Rpc.fan_out ep dsts (Proto.Sh_trim { upto }))
