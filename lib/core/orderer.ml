open Ll_sim
open Ll_net
open Erwin_common

(* ---------- batch -> per-shard request construction ----------

   Array-based hot path: one reverse pass over the positioned slots builds
   every shard's request payload and its wire size, with no List.mapi /
   List.length re-walks. Payloads stay lists because that is the wire
   format ([Proto]); they are built back-to-front so no reversal is
   needed. *)

let build_targets (cluster : t) ~truncate (slots : (int * Types.entry) array)
    =
  let shards = cluster.shard_index in
  let n = Array.length shards in
  let truncating = truncate <> [] in
  let truncate_wire = Proto.frontiers_wire ~each:8 truncate in
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
          Proto.Msh_push { truncate; slots = groups.(i) },
          sizes.(i) + truncate_wire,
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
          Proto.Ssh_order { truncate; bindings = groups.(i); map_chunk },
          (24 * counts.(i)) + map_size + truncate_wire,
          any ))

(* Push a batch to every involved shard as one group; it is complete
   once every shard (replication included) has acknowledged. Pushes are
   retried on loss: binding by explicit position and the primary's
   already-bound filter make them idempotent. No cross-shard barrier
   here — a straggler shard delays only its own batch's commit, never the
   next batch's pushes. *)
let send_pushes (cluster : t) ep ~truncate slots =
  let targets = build_targets cluster ~truncate slots in
  let involved =
    Array.fold_left
      (fun acc (_, _, _, send) -> if send then acc + 1 else acc)
      0 targets
  in
  let g = Rpc.group ep involved ~round:(Engine.ms 20) ~tries:100 in
  Array.iter
    (fun (shard, req, size, send) ->
      if send then Rpc.group_call g ~dst:(Shard.primary_id shard) ~size req)
    targets;
  g

let push (cluster : t) ep ~truncate slots =
  ignore (Rpc.group_join (send_pushes cluster ep ~truncate (Array.of_list slots)) : bool)

let push_batch (cluster : t) ep ?(truncate_logs = []) ~truncate_from slots =
  push cluster ep ~truncate:(Option.to_list truncate_from @ truncate_logs) slots

let broadcast_stable (cluster : t) ep gp =
  if note_stable_log cluster gp then begin
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

let rec broadcast_frontiers (cluster : t) ep = function
  | [] -> ()
  | gp :: rest ->
    broadcast_stable cluster ep gp;
    broadcast_frontiers cluster ep rest

(* Garbage-collect the ordered batch on one follower. The paper does this
   with RDMA writes that move the ring-buffer head pointers without
   involving the follower's CPU (section 5.6) — crucial under load, where
   a CPU-path GC would queue behind thousands of incoming appends. We
   model it as a raw network round trip plus a direct state update,
   guarded by the follower's view/seal state, in two bare callbacks per
   follower. The acks are counted, and the last one fills [acked].
   Retried until every follower confirms (transient slowness) or the view
   moves on (a failure; reconfiguration takes over). *)
let rec gc_followers (cluster : t) ~view ~frontiers ~slots =
  if cluster.view <> view || cluster.reconfiguring then false
  else begin
    let fs = followers cluster and one_way = cluster.cfg.Config.link.one_way in
    let left = ref (List.length fs) and all_ok = ref true and acked = Ivar.create () in
    List.iter
      (fun f ->
        Engine.call_after one_way (fun () ->
            let ok =
              Fabric.is_alive (Seq_replica.node f)
              && Seq_replica.view f = view
              && not (Seq_replica.is_sealed f)
            in
            if ok then Seq_replica.apply_gc f ~frontiers ~slots;
            Engine.call_after one_way (fun () ->
                all_ok := !all_ok && ok;
                decr left;
                if !left = 0 then Ivar.fill acked ())))
      fs;
    ((!left = 0 || Ivar.read_timeout acked ~timeout:(Engine.ms 5) <> None)
    && !all_ok)
    || gc_followers cluster ~view ~frontiers ~slots
  end

(* ---------- adaptive batch sizing ---------- *)

module Adaptive = struct
  (* Multiplicative controller: double the batch while claims come out
     full with a backlog left behind (the sequencing log is filling faster
     than we drain it), halve it once a claim leaves the log empty without
     even filling half a batch. Clamped to [min_batch, max_batch], so
     [min_batch = max_batch] is a fixed batch. *)
  let next (cfg : Config.t) ~cur ~claimed ~backlog =
    let lo = min cfg.Config.min_batch cfg.Config.max_batch in
    let hi = cfg.Config.max_batch in
    let cur = max lo (min cur hi) in
    if claimed >= cur && backlog > 0 then min (cur * 2) hi
    else if backlog = 0 && claimed <= cur / 2 then max (cur / 2) lo
    else cur
end

(* ---------- position assignment ---------- *)

(* A claimed batch's slots before assignment fills them in. *)
let no_slot = (0, Types.Data Types.no_op)

(* [logs] with [log] added, kept ascending; physically [logs] when it
   is already there, so a batch that only repeats logs allocates
   nothing. *)
let rec insert_log log logs =
  match logs with
  | [] -> [ log ]
  | l :: rest ->
    if l = log then logs
    else if l > log then log :: logs
    else
      let rest' = insert_log log rest in
      if rest' == rest then logs else l :: rest'

let rec cursors_of cursors = function
  | [] -> []
  | log :: rest -> Log_table.get cursors log :: cursors_of cursors rest

(* Assign ordering positions to a batch, in entry order: each entry takes
   the next position of its own log's cursor. Returns the slots plus the
   frontier of log 0 and of every other log the batch advanced, log
   order. The orderer and the recovery flush share this one
   assignment. *)
let assign_positions ~cursors (entries : Types.entry array) =
  let slots = Array.make (Array.length entries) no_slot in
  let logs = ref [ 0 ] in
  for i = 0 to Array.length entries - 1 do
    let e = entries.(i) in
    let log = Types.entry_log e in
    let g = Log_table.get cursors log in
    Log_table.set cursors log (g + 1);
    logs := insert_log log !logs;
    slots.(i) <- (g, e)
  done;
  (slots, cursors_of cursors !logs)

(* ---------- read-triggered eager binding ---------- *)

(* True when a parked read demands positions the leader could bind right
   now: the orderer's idle wait is cut short and the next batch claimed
   immediately, instead of waiting out the lazy cadence. Each log's
   demand cursor is compared with that log's ordering cursor; once the
   cursor passes it (or the unordered log drains) the demand is inert
   and the orderer falls back to its normal pacing. The leader is
   checked first: a cursor the orderer does not hold reads the
   leader's frontier. *)
let demand_pending (cluster : t) ~cursors =
  (cluster.cfg.Config.read_demand || cluster.cfg.Config.subscriptions)
  && (not cluster.reconfiguring)
  && (match cluster.replicas with
     | ldr :: _ ->
       Fabric.is_alive (Seq_replica.node ldr)
       && (not (Seq_replica.is_sealed ldr))
       && Seq_log.unclaimed_count (Seq_replica.log ldr) > 0
     | [] -> false)
  && Log_table.fold
       (fun log upto pending -> pending || upto > Log_table.get cursors log)
       cluster.demand false

(* The idle sleep between ordering passes. Gated on the demand knobs
   because an interruptible wait schedules different engine events than a
   plain sleep — with both knobs off the event sequence (and so every
   jitter draw) must stay byte-identical to the lazy baseline.
   [subscriptions] joins [read_demand] here: the subscription manager's
   push frontier demands binding through the same Sr_order_demand path a
   parked read does. *)
let idle_wait (cluster : t) ~cursors =
  if cluster.cfg.Config.read_demand || cluster.cfg.Config.subscriptions then
    ignore
      (Waitq.await_timeout cluster.order_wake
         ~timeout:cluster.cfg.Config.order_interval
         (fun () -> demand_pending cluster ~cursors)
        : bool)
  else Engine.sleep cluster.cfg.Config.order_interval

(* ---------- metrics ---------- *)

let note_claim (cluster : t) n =
  let m = cluster.metrics in
  if n > m.largest_batch then m.largest_batch <- n

let note_stable (cluster : t) ~size ~claimed_at =
  cluster.batches <- cluster.batches + 1;
  cluster.batched_entries <- cluster.batched_entries + size;
  Stats.Reservoir.add cluster.metrics.stable_lag (Engine.now () - claimed_at)

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
   positions idempotently (explicit-position binding).

   The data layer is two values fixed at start: [push] fires a batch's
   writes and returns a handle, which the batch keeps, and [join] waits
   on it. [start] passes the shard push, whose handle is the batch's
   [Rpc.group]; Erwin-m over Kafka passes per-partition produces. *)

type 'p batch = {
  view : int;
  ldr : Seq_replica.t;
  gc_slots : (int * Types.Rid.t) list;
  frontiers : int list;
      (* log 0's cursor after this batch, then every other log's it
         advanced *)
  size : int;
  pushed : 'p;  (* what the data layer's push returned, for its join *)
  claimed_at : Engine.time;
}

let batch_valid (cluster : t) (b : _ batch) =
  cluster.view = b.view
  && (not cluster.reconfiguring)
  && Fabric.is_alive (Seq_replica.node b.ldr)
  && not (Seq_replica.is_sealed b.ldr)

let commit_batch (cluster : t) ep ~join b =
  (* Pushes must land (or be abandoned by a view change's recovery flush,
     which serializes behind us via wait_idle) before any replica GC. *)
  join b.pushed;
  if batch_valid cluster b then begin
    Seq_replica.apply_gc b.ldr ~frontiers:b.frontiers ~slots:b.gc_slots;
    if
      gc_followers cluster ~view:b.view ~frontiers:b.frontiers
        ~slots:b.gc_slots
    then begin
      broadcast_frontiers cluster ep b.frontiers;
      note_stable cluster ~size:b.size ~claimed_at:b.claimed_at
    end
    else cluster.order_resync <- true
  end
  else
    (* Overtaken between push and GC: drop the batch. Its entries are
       still live in the surviving replicas' logs, so the view change's
       recovery flush re-orders them; positions rebind idempotently. *)
    cluster.order_resync <- true

let pipelined_loop (cluster : t) ep ~push ~join =
  let depth = max 1 cluster.cfg.Config.pipeline_depth in
  let queue = Queue.create () in
  let commit_wake = Waitq.create () in
  Engine.spawn ~name:"orderer.commit" (fun () ->
      let rec loop () =
        Waitq.await commit_wake (fun () -> not (Queue.is_empty queue));
        let b = Queue.pop queue in
        commit_batch cluster ep ~join b;
        cluster.inflight_batches <- cluster.inflight_batches - 1;
        Waitq.broadcast cluster.order_idle;
        loop ()
      in
      loop ());
  (* The ordering frontier, one cursor per log. A log the table does not
     hold has no batch in flight since the last resync, so the leader's
     committed frontier for it is authoritative. *)
  let cursors =
    Log_table.create ~default:(fun log ->
        Seq_log.last_ordered_gp (Seq_replica.log (leader cluster)) ~log)
  in
  let pipe_view = ref (-1) in
  let rec loop () =
    Waitq.await cluster.order_idle (fun () ->
        cluster.inflight_batches < depth);
    (* With the pipeline empty the leader's last-ordered-gp is
       authoritative again: resync the ordering frontier (and, after a
       discarded batch, the claim cursor). The reset reseeds log 0 now
       and every other log from the leader on next touch. *)
    if cluster.inflight_batches = 0 then begin
      (match cluster.replicas with
      | r :: _ ->
        if cluster.order_resync then begin
          Seq_log.reset_claims (Seq_replica.log r);
          cluster.order_resync <- false
        end;
        Log_table.reset cursors
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
            let slots, frontiers = assign_positions ~cursors entries in
            let gc_slots = ref [] in
            for i = n - 1 downto 0 do
              let gp, e = slots.(i) in
              gc_slots := (gp, Types.entry_rid e) :: !gc_slots
            done;
            cluster.inflight_batches <- cluster.inflight_batches + 1;
            note_claim cluster n;
            let pushed = push slots in
            Queue.push
              {
                view = !pipe_view;
                ldr;
                gc_slots = !gc_slots;
                frontiers;
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
    else idle_wait cluster ~cursors;
    loop ()
  in
  loop ()

let run (cluster : t) ep ~push ~join =
  Engine.spawn ~name:"orderer" (fun () ->
      pipelined_loop cluster ep ~push ~join)

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
           cursor. *)
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
  run cluster ep
    ~push:(send_pushes cluster ep ~truncate:[])
    ~join:(fun g -> ignore (Rpc.group_join g : bool))

let is_idle (cluster : t) = cluster.inflight_batches = 0

let wait_idle (cluster : t) =
  Waitq.await cluster.order_idle (fun () -> is_idle cluster)
