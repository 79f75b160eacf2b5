open Ll_sim
open Ll_net
open Erwin_common

(* ---------- batch -> per-shard request construction ----------

   Array-based hot path: one reverse pass over the positioned slots builds
   every shard's request payload and its wire size, with no List.mapi /
   List.length re-walks. Payloads stay lists because that is the wire
   format ([Proto]); they are built back-to-front so no reversal is
   needed. *)

let build_targets (cluster : t) ~truncate_from ~truncate_logs
    (slots : (int * Types.entry) array) =
  let shards = cluster.shard_index in
  let n = Array.length shards in
  let truncating = truncate_from <> None || truncate_logs <> [] in
  match cluster.mode with
  | M ->
    (* Deterministic placement: position p -> shard (p mod n). *)
    let groups = Array.make n [] in
    let sizes = Array.make n 0 in
    for i = Array.length slots - 1 downto 0 do
      let gp, entry = slots.(i) in
      match (entry : Types.entry) with
      | Types.Data r ->
        let s = gp mod n in
        groups.(s) <- (gp, r) :: groups.(s);
        sizes.(s) <- sizes.(s) + Proto.record_wire r
      | Types.Meta _ -> assert false
    done;
    Array.init n (fun i ->
        ( shards.(i),
          Proto.Msh_push { truncate_from; truncate_logs; slots = groups.(i) },
          sizes.(i) + (8 * List.length truncate_logs),
          groups.(i) <> [] || truncating ))
  | St ->
    let groups = Array.make n [] in
    let counts = Array.make n 0 in
    let map_chunk = ref [] in
    for i = Array.length slots - 1 downto 0 do
      let gp, entry = slots.(i) in
      match (entry : Types.entry) with
      | Types.Meta m ->
        groups.(m.shard) <- (gp, Types.entry_rid entry) :: groups.(m.shard);
        counts.(m.shard) <- counts.(m.shard) + 1;
        map_chunk := (gp, m.shard) :: !map_chunk
      | Types.Data _ -> assert false
    done;
    (* Every shard stores the full position->shard map chunk, so any
       shard server can answer Ssh_get_map (section 5.3). *)
    let map_chunk = !map_chunk in
    let map_size = 12 * Array.length slots in
    let any = map_chunk <> [] || truncating in
    Array.init n (fun i ->
        ( shards.(i),
          Proto.Ssh_order
            { truncate_from; truncate_logs; bindings = groups.(i); map_chunk },
          (24 * counts.(i)) + map_size + (8 * List.length truncate_logs),
          any ))

(* Fire one independent push fiber per involved shard; [on_done] runs once
   every shard (replication included) has acknowledged. Pushes are retried
   on loss: binding by explicit position and the primary's already-bound
   filter make them idempotent. No cross-shard barrier here — a straggler
   shard delays only its own batch's commit, never the next batch's
   pushes. *)
let spawn_pushes (cluster : t) ep ?(truncate_logs = []) ~truncate_from slots
    ~on_done =
  let targets = build_targets cluster ~truncate_from ~truncate_logs slots in
  let involved =
    Array.fold_left
      (fun acc (_, _, _, send) -> if send then acc + 1 else acc)
      0 targets
  in
  if involved = 0 then on_done ()
  else begin
    let remaining = ref involved in
    Array.iter
      (fun (shard, req, size, send) ->
        if send then
          Engine.spawn ~name:"orderer.push" (fun () ->
              ignore
                (Rpc.call_retry ep ~dst:(Shard.primary_id shard) ~size
                   ~timeout:(Engine.ms 20) ~max_tries:100 req);
              decr remaining;
              if !remaining = 0 then on_done ()))
      targets
  end

let push_batch (cluster : t) ep ?(truncate_logs = []) ~truncate_from slots =
  let iv = Ivar.create () in
  spawn_pushes cluster ep ~truncate_logs ~truncate_from (Array.of_list slots)
    ~on_done:(fun () -> Ivar.fill iv ());
  Ivar.read iv

let broadcast_stable (cluster : t) ep gp =
  if gp > cluster.stable_gp then begin
    cluster.stable_gp <- gp;
    (* Emitted before any shard learns the new bound, so a monitor's
       stable frontier is always >= every shard's. *)
    if Probe.active () then Probe.emit (Probe.Stable_advanced { gp });
    match cluster.on_stable with Some f -> f gp | None -> ()
  end;
  Array.iter
    (fun shard ->
      Rpc.send_oneway ep ~dst:(Shard.primary_id shard)
        (Proto.Sh_set_stable { gp }))
    cluster.shard_index

(* Multi-log stable broadcast: the log-0 frontier takes the exact legacy
   path above (so a batch with no tenant entries is byte-identical),
   then each tenant frontier the batch advanced gets its own merge,
   probe and one-way round. [on_stable] stays log-0 scoped — the
   subscription manager subscribes to the root log. *)
let broadcast_stable_logs (cluster : t) ep ~new_gp ~new_gps =
  broadcast_stable cluster ep new_gp;
  List.iter
    (fun (log, g) ->
      if g > stable_for cluster ~log then begin
        note_stable_log cluster g;
        if Probe.active () then Probe.emit (Probe.Stable_advanced { gp = g })
      end;
      Array.iter
        (fun shard ->
          Rpc.send_oneway ep ~dst:(Shard.primary_id shard)
            (Proto.Sh_set_stable { gp = g }))
        cluster.shard_index)
    new_gps

(* Garbage-collect the ordered batch on one follower. The paper does this
   with RDMA writes that move the ring-buffer head pointers without
   involving the follower's CPU (section 5.6) — crucial under load, where
   a CPU-path GC would queue behind thousands of incoming appends. We
   model it as a raw network round trip plus a direct state update,
   guarded by the follower's view/seal state. *)
let rdma_gc (cluster : t) f ~view ~gps ~slots ~new_gp =
  let iv = Ivar.create () in
  let rtt = cluster.cfg.Config.link.Fabric.one_way * 2 in
  Engine.after (rtt / 2) (fun () ->
      if
        Fabric.is_alive (Seq_replica.node f)
        && Seq_replica.view f = view
        && not (Seq_replica.is_sealed f)
      then begin
        Seq_replica.apply_gc f ~gps ~slots ~new_gp;
        Engine.after (rtt / 2) (fun () -> ignore (Ivar.try_fill iv true))
      end
      else Engine.after (rtt / 2) (fun () -> ignore (Ivar.try_fill iv false)));
  iv

(* Retry follower GC until every follower confirms (transient slowness) or
   the view moves on (a failure; reconfiguration takes over). *)
let rec gc_followers (cluster : t) ep ~view ?(gps = []) ~slots ~new_gp () =
  if cluster.view <> view || cluster.reconfiguring then false
  else begin
    let acks =
      List.map
        (fun f -> rdma_gc cluster f ~view ~gps ~slots ~new_gp)
        (followers cluster)
    in
    match Ivar.join_all_timeout acks ~timeout:(Engine.ms 5) with
    | Some resps when List.for_all Fun.id resps -> true
    | _ -> gc_followers cluster ep ~view ~gps ~slots ~new_gp ()
  end

(* ---------- adaptive batch sizing ---------- *)

module Adaptive = struct
  (* Multiplicative controller: double the batch while claims come out
     full with a backlog left behind (the sequencing log is filling faster
     than we drain it), halve it once a claim leaves the log empty without
     even filling half a batch. Clamped to [min_batch, max_batch]. *)
  let next (cfg : Config.t) ~cur ~claimed ~backlog =
    if not cfg.Config.adaptive_batch then cfg.Config.max_batch
    else begin
      let lo = min cfg.Config.min_batch cfg.Config.max_batch in
      let hi = cfg.Config.max_batch in
      let cur = max lo (min cur hi) in
      if claimed >= cur && backlog > 0 then min (cur * 2) hi
      else if backlog = 0 && claimed <= cur / 2 then max (cur / 2) lo
      else cur
    end
end

(* ---------- position assignment ---------- *)

(* A claimed batch's slots before assignment fills them in. *)
let no_slot = (0, Types.Data Types.no_op)

(* Assign ordering positions to a batch, in entry order. Log 0 draws
   densely from the [next0] cursor; each tenant log draws from its own
   packed cursor in [tbl], seeded on first touch from [frontier log].
   Returns the slots plus the [(log, frontier)] list for the tenant logs
   this batch advanced. A log-0-only batch allocates nothing beyond its
   slots: the set of advanced tenant logs is created on the first tenant
   entry. The orderer and the recovery flush share this one
   assignment. *)
let assign_positions ~frontier ~next0 ~tbl (entries : Types.entry array) =
  let slots = Array.make (Array.length entries) no_slot in
  let seen = ref None in
  for i = 0 to Array.length entries - 1 do
    let e = entries.(i) in
    let log = Types.entry_log e in
    if log = 0 then begin
      slots.(i) <- (!next0, e);
      incr next0
    end
    else begin
      let g =
        match Hashtbl.find_opt tbl log with Some g -> g | None -> frontier log
      in
      Hashtbl.replace tbl log (g + 1);
      let advanced =
        match !seen with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 8 in
          seen := Some h;
          h
      in
      Hashtbl.replace advanced log ();
      slots.(i) <- (g, e)
    end
  done;
  match !seen with
  | None -> (slots, [])
  | Some advanced ->
    ( slots,
      Hashtbl.fold
        (fun log () acc -> (log, Hashtbl.find tbl log) :: acc)
        advanced [] )

(* ---------- read-triggered eager binding ---------- *)

(* True when a parked read demands positions the leader could bind right
   now: the orderer's idle wait is cut short and the next batch claimed
   immediately, instead of waiting out the lazy cadence. Once the ordering
   frontier passes the demand cursor (or the unordered log drains) the
   cursor is inert and the orderer falls back to its normal pacing. *)
let demand_pending (cluster : t) ~frontier =
  (cluster.cfg.Config.read_demand || cluster.cfg.Config.subscriptions)
  && (cluster.demand_upto > frontier
     || (Hashtbl.length cluster.demand_uptos > 0
        &&
        (* Tenant demand compares against the leader's committed per-log
           frontier; with in-flight batches this can over-report, but the
           claim that follows is a no-op when nothing is unclaimed. *)
        match cluster.replicas with
        | ldr :: _ ->
          List.exists
            (fun (log, upto) ->
              upto > Seq_log.last_ordered_gp_for (Seq_replica.log ldr) ~log)
            (demand_logs cluster)
        | [] -> false))
  && (not cluster.reconfiguring)
  && (match cluster.replicas with
     | ldr :: _ ->
       Fabric.is_alive (Seq_replica.node ldr)
       && (not (Seq_replica.is_sealed ldr))
       && Seq_log.unclaimed_count (Seq_replica.log ldr) > 0
     | [] -> false)

(* The idle sleep between ordering passes. Gated on the demand knobs
   because an interruptible wait schedules different engine events than a
   plain sleep — with both knobs off the event sequence (and so every
   jitter draw) must stay byte-identical to the lazy baseline.
   [subscriptions] joins [read_demand] here: the subscription manager's
   push frontier demands binding through the same Sr_order_demand path a
   parked read does. *)
let idle_wait (cluster : t) ~frontier =
  if cluster.cfg.Config.read_demand || cluster.cfg.Config.subscriptions then
    ignore
      (Waitq.await_timeout cluster.order_wake
         ~timeout:cluster.cfg.Config.order_interval
         (fun () -> demand_pending cluster ~frontier:(frontier ()))
        : bool)
  else Engine.sleep cluster.cfg.Config.order_interval

(* ---------- metrics ---------- *)

let note_claim (cluster : t) n =
  let m = cluster.metrics in
  if m.first_claim_at < 0 then m.first_claim_at <- Engine.now ();
  Stats.Histogram.add m.batch_sizes n;
  Stats.Histogram.add m.depth_samples (max 1 cluster.inflight_batches);
  if n > m.largest_batch then m.largest_batch <- n

let note_stable (cluster : t) ~size ~claimed_at =
  cluster.batches <- cluster.batches + 1;
  cluster.batched_entries <- cluster.batched_entries + size;
  let m = cluster.metrics in
  m.ordered_records <- m.ordered_records + size;
  m.last_stable_at <- Engine.now ();
  Stats.Reservoir.add m.stable_lag (Engine.now () - claimed_at)

(* ---------- pipelined orderer ----------

   Two fibers per cluster:

   - the dispatcher claims a batch from the leader's log, assigns
     positions from its own ordering frontier, and fires the per-shard
     pushes — without waiting for them;
   - the committer consumes batches strictly in dispatch order and, per
     batch, waits for its pushes, GCs the leader, GCs every follower, and
     only then advances stable-gp (the section 4.5 invariant, per batch).

   So batch N+1's shard pushes overlap batch N's follower GC and stable
   broadcast, while stable-gp still advances in batch order. In-flight
   batches are bounded by [pipeline_depth]; at depth 1 the dispatcher
   waits for each batch to commit before claiming the next, so no two
   batches overlap. A seal or view change between
   a batch's push and its GC invalidates the batch: the committer drops it
   without touching stable-gp, and the recovery flush re-binds its
   positions idempotently (explicit-position binding). *)

type batch = {
  view : int;
  ldr : Seq_replica.t;
  gc_slots : (int * Types.Rid.t) list;
  new_gp : int;
  new_gps : (int * int) list;
      (* tenant frontiers this batch advanced ([] for a log-0 batch) *)
  size : int;
  pushed : unit Ivar.t;
  claimed_at : Engine.time;
}

let batch_valid (cluster : t) (b : batch) =
  cluster.view = b.view
  && (not cluster.reconfiguring)
  && Fabric.is_alive (Seq_replica.node b.ldr)
  && not (Seq_replica.is_sealed b.ldr)

let commit_batch (cluster : t) ep (b : batch) =
  (* Pushes must land (or be abandoned by a view change's recovery flush,
     which serializes behind us via wait_idle) before any replica GC. *)
  Ivar.read b.pushed;
  if batch_valid cluster b then begin
    Seq_replica.apply_gc b.ldr ~gps:b.new_gps ~slots:b.gc_slots
      ~new_gp:b.new_gp;
    if
      gc_followers cluster ep ~view:b.view ~gps:b.new_gps ~slots:b.gc_slots
        ~new_gp:b.new_gp ()
    then begin
      broadcast_stable_logs cluster ep ~new_gp:b.new_gp ~new_gps:b.new_gps;
      note_stable cluster ~size:b.size ~claimed_at:b.claimed_at
    end
    else cluster.order_resync <- true
  end
  else
    (* Overtaken between push and GC: drop the batch. Its entries are
       still live in the surviving replicas' logs, so the view change's
       recovery flush re-orders them; positions rebind idempotently. *)
    cluster.order_resync <- true

let pipelined_loop (cluster : t) ep =
  let depth = max 1 cluster.cfg.Config.pipeline_depth in
  let queue : batch Queue.t = Queue.create () in
  let commit_wake = Waitq.create () in
  Engine.spawn ~name:"orderer.commit" (fun () ->
      let rec loop () =
        Waitq.await commit_wake (fun () -> not (Queue.is_empty queue));
        let b = Queue.pop queue in
        commit_batch cluster ep b;
        cluster.inflight_batches <- cluster.inflight_batches - 1;
        Waitq.broadcast cluster.order_idle;
        loop ()
      in
      loop ());
  let next_gp = ref 0 in
  let next_gps : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (* A tenant log absent from [next_gps] has no batch in flight, so the
     leader's committed frontier for it is authoritative. *)
  let tenant_frontier log =
    Seq_log.last_ordered_gp_for (Seq_replica.log (leader cluster)) ~log
  in
  let pipe_view = ref (-1) in
  let rec loop () =
    Waitq.await cluster.order_idle (fun () ->
        cluster.inflight_batches < depth);
    (* With the pipeline empty the leader's last-ordered-gp is
       authoritative again: resync the ordering frontier (and, after a
       discarded batch, the claim cursor). Tenant cursors reseed lazily
       from the leader's per-log frontiers on next touch. *)
    if cluster.inflight_batches = 0 then begin
      (match cluster.replicas with
      | r :: _ ->
        if cluster.order_resync then begin
          Seq_log.reset_claims (Seq_replica.log r);
          cluster.order_resync <- false
        end;
        next_gp := Seq_log.last_ordered_gp (Seq_replica.log r);
        Hashtbl.reset next_gps
      | [] -> ());
      pipe_view := cluster.view
    end;
    let claimed, backlog =
      if
        cluster.reconfiguring
        || cluster.view <> !pipe_view
        || cluster.replicas = []
      then (0, 0)
      else begin
        let ldr = leader cluster in
        if
          (not (Fabric.is_alive (Seq_replica.node ldr)))
          || Seq_replica.is_sealed ldr
        then (0, 0)
        else begin
          let slog = Seq_replica.log ldr in
          let entries = Seq_log.claim_unordered slog ~max:cluster.cur_batch in
          let n = Array.length entries in
          if n = 0 then (0, 0)
          else begin
            let slots, new_gps =
              assign_positions ~frontier:tenant_frontier ~next0:next_gp
                ~tbl:next_gps entries
            in
            let gc_slots = ref [] in
            for i = n - 1 downto 0 do
              let gp, e = slots.(i) in
              gc_slots := (gp, Types.entry_rid e) :: !gc_slots
            done;
            cluster.inflight_batches <- cluster.inflight_batches + 1;
            note_claim cluster n;
            let pushed = Ivar.create () in
            spawn_pushes cluster ep ~truncate_from:None slots
              ~on_done:(fun () -> Ivar.fill pushed ());
            Queue.push
              {
                view = !pipe_view;
                ldr;
                gc_slots = !gc_slots;
                new_gp = !next_gp;
                new_gps;
                size = n;
                pushed;
                claimed_at = Engine.now ();
              }
              queue;
            Waitq.broadcast commit_wake;
            (n, Seq_log.unclaimed_count slog)
          end
        end
      end
    in
    cluster.cur_batch <-
      Adaptive.next cluster.cfg ~cur:cluster.cur_batch ~claimed ~backlog;
    (* Pacing: with a backlog and pipeline slots free, cut the next batch
       almost immediately; otherwise poll at the ordering interval. *)
    if claimed > 0 && backlog > 0 then
      Engine.sleep (max (Engine.ns 100) (cluster.cfg.Config.order_interval / 16))
    else idle_wait cluster ~frontier:(fun () -> !next_gp);
    loop ()
  in
  loop ()

let start (cluster : t) =
  let ep = new_endpoint cluster ~name:"orderer" in
  let cfg = cluster.cfg in
  (* The orderer's endpoint doubles as the demand sink: shards with a
     parked tail read send Sr_order_demand here. Max-merge into the
     cursor and wake the ordering loop. *)
  Rpc.set_handler ep (fun ~src:_ req ~reply ->
      match req with
      | Proto.Sr_order_demand { upto } ->
        (* Per-log max-merge: a packed position lands in its own log's
           cursor (log 0 keeps the scalar, identical to the original). *)
        note_demand cluster upto;
        (* Wake unconditionally, not just when the cursor rises: a
           repeated demand at or below the merged cursor still means a
           reader is parked on positions that may have arrived after the
           orderer went idle (e.g. a demand that over-reached the tail,
           survived a view change, and left later same-range demands
           silent). [demand_pending] decides whether there is anything
           to claim. *)
        Waitq.broadcast cluster.order_wake;
        reply ~size:(Proto.resp_size Proto.R_ok) Proto.R_ok
      | _ -> failwith "orderer: unexpected request");
  cluster.orderer_node <- Some (Rpc.endpoint_id ep);
  if cfg.Config.read_demand then
    List.iter
      (fun s -> Shard.set_demand_target s (Some (Rpc.endpoint_id ep)))
      cluster.shards;
  Engine.spawn ~name:"orderer" (fun () -> pipelined_loop cluster ep)

let is_idle (cluster : t) = cluster.inflight_batches = 0

let wait_idle (cluster : t) =
  Waitq.await cluster.order_idle (fun () -> is_idle cluster)
