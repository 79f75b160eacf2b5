open Ll_sim
open Ll_net
open Lazylog

type violation = {
  invariant : string;
  detail : string;
  at_time : Engine.time;
  at_event : int;
}

let pp_violation fmt v =
  Format.fprintf fmt "[%s] %s (event #%d, t=%.3f ms)" v.invariant v.detail
    v.at_event
    (Engine.to_ms v.at_time)

type coverage = {
  mutable runs : int;
  mutable violations : int;
  mutable events : int;
  mutable acked : int;
  mutable reads : int;
  mutable crashes : int;
  mutable view_installs : int;
  mutable stable : int;
  mutable delivered : int;
  mutable gray_faults : int;
  mutable outliers_removed : int;
  mutable tenant_logs : int;
  mutable ingress_shed : int;
  mutable retries : int;
  mutable hedges_won : int;
}

let empty_coverage () =
  {
    runs = 0; violations = 0; events = 0; acked = 0; reads = 0; crashes = 0;
    view_installs = 0; stable = 0; delivered = 0; gray_faults = 0;
    outliers_removed = 0; tenant_logs = 0; ingress_shed = 0; retries = 0;
    hedges_won = 0;
  }

let add_coverage into c =
  into.runs <- into.runs + c.runs;
  into.violations <- into.violations + c.violations;
  into.events <- into.events + c.events;
  into.acked <- into.acked + c.acked;
  into.reads <- into.reads + c.reads;
  into.crashes <- into.crashes + c.crashes;
  into.view_installs <- into.view_installs + c.view_installs;
  into.stable <- into.stable + c.stable;
  into.delivered <- into.delivered + c.delivered;
  into.gray_faults <- into.gray_faults + c.gray_faults;
  into.outliers_removed <- into.outliers_removed + c.outliers_removed;
  into.tenant_logs <- into.tenant_logs + c.tenant_logs;
  into.ingress_shed <- into.ingress_shed + c.ingress_shed;
  into.retries <- into.retries + c.retries;
  into.hedges_won <- into.hedges_won + c.hedges_won

type t = {
  cluster : Erwin_common.t;
  on_violation : violation -> unit;
  (* client-visible history *)
  invoked : (Types.Rid.t, Engine.time) Hashtbl.t;
  acked : (Types.Rid.t, Engine.time) Hashtbl.t;
  (* shard-side state *)
  stored_rids : (Types.Rid.t, unit) Hashtbl.t;
  nooped : (Types.Rid.t, unit) Hashtbl.t;
  bindings : (int, int * Types.Rid.t) Hashtbl.t;  (* pos -> (shard, rid) *)
  installed_views : (int, int) Hashtbl.t;  (* replica node -> last view *)
  (* exactly-once delivery: subscription name -> (from, next expected) *)
  subs : (string, int * int) Hashtbl.t;
  (* Per log (positions are packed, so every invariant is scoped to the
     log its position belongs to): the stable prefix, and the real-time
     order frontier — the max invocation time among exposed records.
     Real-time order is per-log: tenants are independently ordered. *)
  stable : Log_table.t;
  max_invoke_exposed : Log_table.t;
  mutable violations_rev : violation list;
  cov : coverage;
}

let violate t invariant fmt =
  Format.kasprintf
    (fun detail ->
      let v =
        {
          invariant;
          detail;
          at_time = Engine.now ();
          at_event = Engine.events_executed ();
        }
      in
      t.violations_rev <- v :: t.violations_rev;
      t.on_violation v)
    fmt

let rid_pp = Types.Rid.pp

let stable_for t ~log = Log_table.get t.stable log

(* Log 0's stable prefix: subscriptions read log 0. *)
let root_stable t = stable_for t ~log:0

(* Exposure: position [pos] joined its log's stable prefix. Incremental
   real-time-order check — exposures arrive in ascending position order
   within a log, so it suffices to track the max invocation time among
   that log's already-exposed records: if a newly exposed record was
   acknowledged before that max, some record invoked after this ack was
   ordered ahead of it. O(1) per position. Real-time order is per-log:
   tenants of the multi-log fabric are independently ordered. *)
let expose t pos =
  match Hashtbl.find_opt t.bindings pos with
  | None ->
    violate t "durability" "stable position %d was never bound on any shard"
      pos
  | Some (_, rid) ->
    if rid.Types.Rid.client >= 0 then begin
      let log = Logid.log_of pos in
      let mie = Log_table.get t.max_invoke_exposed log in
      (match Hashtbl.find_opt t.acked rid with
      | Some ack_t when mie > ack_t ->
        violate t "real-time-order"
          "record %a (acked at %.3f ms) exposed at position %d after a \
           record invoked at %.3f ms"
          rid_pp rid (Engine.to_ms ack_t) pos (Engine.to_ms mie)
      | _ -> ());
      match Hashtbl.find_opt t.invoked rid with
      | Some inv_t when inv_t > mie ->
        Log_table.set t.max_invoke_exposed log inv_t
      | _ -> ()
    end

(* Crash-point durability audit: an acknowledged rid not yet stored on a
   shard must still be known (live, or in the ordered-duplicate filter) by
   every surviving sequencing replica — acks require all f+1 replicas, so
   losing it from any survivor means the ack lied. *)
let audit_crash t =
  let survivors =
    List.filter
      (fun r -> Fabric.is_alive (Seq_replica.node r))
      t.cluster.Erwin_common.replicas
  in
  if survivors <> [] then
    Hashtbl.iter
      (fun rid _ ->
        if not (Hashtbl.mem t.stored_rids rid) then
          List.iter
            (fun r ->
              if not (Seq_log.known (Seq_replica.log r) rid) then
                violate t "durability"
                  "acked record %a missing from surviving replica %s at \
                   crash point"
                  rid_pp rid (Seq_replica.name r))
            survivors)
      t.acked

let handle t (ev : Probe.event) =
  match ev with
  | Append_invoked { rid } ->
    if not (Hashtbl.mem t.invoked rid) then
      Hashtbl.replace t.invoked rid (Engine.now ())
  | Append_acked { rid } ->
    if not (Hashtbl.mem t.acked rid) then begin
      Hashtbl.replace t.acked rid (Engine.now ());
      t.cov.acked <- t.cov.acked + 1;
      if Hashtbl.mem t.nooped rid then
        violate t "durability"
          "record %a acknowledged after its binding was no-op'ed" rid_pp rid
    end
  | View_installed { replica; view } ->
    t.cov.view_installs <- t.cov.view_installs + 1;
    (match Hashtbl.find_opt t.installed_views replica with
    | Some prev when view <= prev ->
      violate t "view-safety"
        "replica node %d installed view %d after view %d" replica view prev
    | _ -> ());
    Hashtbl.replace t.installed_views replica view
  | Stable_advanced { gp } ->
    let log = Logid.log_of gp in
    let cur = stable_for t ~log in
    if gp <= cur then
      violate t "view-safety"
        "stable prefix of log %d moved backwards: %d after %d" log gp cur
    else begin
      (* Per-log positions are contiguous in the packed keyspace, so this
         walk covers exactly the newly exposed positions of [log]. *)
      for pos = cur to gp - 1 do
        expose t pos
      done;
      (* Coverage: log 0's prefix length, and each tenant log counted
         when its prefix first advances. *)
      if log = 0 then t.cov.stable <- gp
      else if cur = Logid.base ~log then
        t.cov.tenant_logs <- t.cov.tenant_logs + 1;
      Log_table.set t.stable log gp
    end
  | Shard_stored { shard; pos; rid } ->
    if rid.Types.Rid.client >= 0 then Hashtbl.replace t.stored_rids rid ();
    (match Hashtbl.find_opt t.bindings pos with
    | Some (shard', rid')
      when pos < stable_for t ~log:(Logid.log_of pos)
           && (shard' <> shard || not (Types.Rid.equal rid' rid)) ->
      violate t "stable-prefix"
        "stable position %d rebound: was %a on shard %d, now %a on shard %d"
        pos rid_pp rid' shard' rid_pp rid shard
    | _ -> ());
    Hashtbl.replace t.bindings pos (shard, rid)
  | Shard_nooped { shard; pos; rid } ->
    Hashtbl.replace t.nooped rid ();
    if Hashtbl.mem t.acked rid then
      violate t "durability"
        "acked record %a no-op'ed at position %d on shard %d (lost)" rid_pp
        rid pos shard
  | Shard_truncated { shard; from } ->
    let log = Logid.log_of from in
    let stable = stable_for t ~log in
    if from < stable then
      violate t "stable-prefix"
        "shard %d truncated from position %d, below stable prefix %d" shard
        from stable
    else
      (* Scoped to [from]'s log: a multi-log truncate names one tenant's
         frontier and must not forget other tenants' bindings. *)
      Hashtbl.iter
        (fun pos (sh, _) ->
          if pos >= from && sh = shard && Logid.log_of pos = log then
            Hashtbl.remove t.bindings pos)
        (Hashtbl.copy t.bindings)
  | Read_served { shard; pos; rid } ->
    t.cov.reads <- t.cov.reads + 1;
    let stable = stable_for t ~log:(Logid.log_of pos) in
    if pos >= stable then
      violate t "read-stability"
        "shard %d served position %d beyond the stable prefix %d" shard pos
        stable
    else begin
      match Hashtbl.find_opt t.bindings pos with
      | None ->
        violate t "read-agreement"
          "shard %d served position %d which was never bound" shard pos
      | Some (shard', rid') ->
        if shard' <> shard then
          violate t "read-agreement"
            "position %d served by shard %d but bound on shard %d" pos shard
            shard'
        else if not (Types.Rid.equal rid' rid) then
          violate t "read-agreement"
            "position %d read as %a but was bound to %a" pos rid_pp rid
            rid_pp rid'
    end
  | Crashed _ ->
    t.cov.crashes <- t.cov.crashes + 1;
    audit_crash t
  | Sub_registered { name; from } ->
    if not (Hashtbl.mem t.subs name) then Hashtbl.replace t.subs name (from, from)
  | Sub_delivered { name; pos; rid } -> (
    t.cov.delivered <- t.cov.delivered + 1;
    match Hashtbl.find_opt t.subs name with
    | None ->
      violate t "exactly-once"
        "subscription %s delivered position %d before registering" name pos
    | Some (from, next) ->
      if pos >= root_stable t then
        violate t "exactly-once"
          "subscription %s delivered position %d beyond the stable prefix %d"
          name pos (root_stable t);
      if pos < next then
        violate t "exactly-once"
          "subscription %s delivered position %d twice (cursor already at %d)"
          name pos next
      else begin
        (* Positions a subscription skips over must all be no-op bindings
           (Erwin-st's unresolved-data fillers) — a skipped client record
           is a lost or reordered delivery. *)
        for p = next to pos - 1 do
          match Hashtbl.find_opt t.bindings p with
          | Some (_, r) when r.Types.Rid.client < 0 -> ()
          | Some (_, r) ->
            violate t "exactly-once"
              "subscription %s skipped position %d (record %a) while \
               delivering %d"
              name p rid_pp r pos
          | None ->
            violate t "exactly-once"
              "subscription %s skipped unbound position %d while delivering \
               %d"
              name p pos
        done;
        (match Hashtbl.find_opt t.bindings pos with
        | Some (_, r) when Types.Rid.equal r rid -> ()
        | Some (_, r) ->
          violate t "exactly-once"
            "subscription %s delivered %a at position %d but %a is bound \
             there"
            name rid_pp rid pos rid_pp r
        | None ->
          violate t "exactly-once"
            "subscription %s delivered unbound position %d" name pos);
        Hashtbl.replace t.subs name (from, pos + 1)
      end)
  | Gray_fault _ -> t.cov.gray_faults <- t.cov.gray_faults + 1
  | Outlier_removed _ ->
    t.cov.outliers_removed <- t.cov.outliers_removed + 1
  | Ingress_shed _ -> t.cov.ingress_shed <- t.cov.ingress_shed + 1

(* A subscription is caught up when no client record below the stable
   prefix is still awaiting delivery (trailing no-op fillers do not
   count: the consumer only learns of them with the next pushed record). *)
let sub_pending t next =
  let rec scan p =
    if p >= root_stable t then None
    else
      match Hashtbl.find_opt t.bindings p with
      | Some (_, r) when r.Types.Rid.client >= 0 -> Some p
      | _ -> scan (p + 1)
  in
  scan next

let subs_caught_up t =
  Hashtbl.fold
    (fun _ (_, next) acc -> acc && sub_pending t next = None)
    t.subs true

(* End-of-run completeness: the per-event checks above catch duplicates,
   reorderings and rid mismatches as they happen, but a record that is
   simply never pushed is only visible by its absence — audited here once
   the run has drained. *)
let finalize_delivery t =
  Hashtbl.iter
    (fun name (_, next) ->
      match sub_pending t next with
      | Some p ->
        let _, r = Hashtbl.find t.bindings p in
        violate t "exactly-once"
          "subscription %s never received record %a at stable position %d \
           (cursor stuck at %d, stable %d)"
          name rid_pp r p next (root_stable t)
      | None -> ())
    t.subs

(* End-of-run progress audit for gray (fail-slow) runs: the per-event
   monitors above only see what happens — a system that silently wedges
   under a gray fault emits nothing wrong. Once the post-horizon drain has
   settled, every acknowledged record must have been bound on some shard
   (gray faults slow things down; they must never swallow an acked
   append), and the stable prefix must have advanced at all if anything
   was acked. Call only after the drain has quiesced — an acked-but-
   still-in-flight binding would be a false positive. *)
let nothing_stabilized t =
  Log_table.fold (fun log g none -> none && g = Logid.base ~log) t.stable true

let progress_pending t =
  (t.cov.acked > 0 && nothing_stabilized t)
  || Hashtbl.fold
       (fun rid _ pending -> pending || not (Hashtbl.mem t.stored_rids rid))
       t.acked false

let finalize_progress t =
  (* Called while a view change is in flight only at the drain deadline:
     the sequencing layer stayed wedged through the whole slack. *)
  if t.cluster.Erwin_common.reconfiguring then
    violate t "gray-progress"
      "a view change was still in flight at the drain deadline";
  if t.cov.acked > 0 && nothing_stabilized t then
    violate t "gray-progress"
      "stable prefix never advanced despite %d acknowledged appends"
      t.cov.acked;
  Hashtbl.iter
    (fun rid _ ->
      if not (Hashtbl.mem t.stored_rids rid) then
        violate t "gray-progress"
          "acked record %a still unbound after the post-horizon drain"
          rid_pp rid)
    t.acked

let install ?(on_violation = fun _ -> ()) cluster =
  let t =
    {
      cluster;
      on_violation;
      invoked = Hashtbl.create 4096;
      acked = Hashtbl.create 4096;
      stored_rids = Hashtbl.create 4096;
      nooped = Hashtbl.create 64;
      bindings = Hashtbl.create 4096;
      installed_views = Hashtbl.create 8;
      subs = Hashtbl.create 4;
      stable = Log_table.create ~default:(fun log -> Logid.base ~log);
      max_invoke_exposed = Log_table.create ~default:(fun _ -> -1);
      violations_rev = [];
      cov = empty_coverage ();
    }
  in
  Probe.subscribe (handle t);
  t

let violations t = List.rev t.violations_rev
let first t = match List.rev t.violations_rev with v :: _ -> Some v | [] -> None

let coverage t = t.cov
