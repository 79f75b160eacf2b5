open Ll_sim

(* The client-side linger batcher (group commit).

   One batcher per log per cluster process, shared by every client handle
   of that process writing the log, so concurrent appends from different
   client fibers coalesce into a single [Sr_append] fan-out to all f+1
   sequencing replicas: the same request a lone append sends, carrying
   the whole batch. A batch holds one log's entries, so a replica's fair
   ingress accounts it to the tenant that sent it.
   A batch flushes on whichever trigger fires first: the [linger] deadline
   armed when the batch opens, [max_batch_records], or [max_batch_bytes].
   Every caller of the batch gets its answer from the one fan-out ack.

   A replica admits a batch whole or not at all
   ([Seq_log.append_or_wait]), so a batch holding more fresh
   records than [seq_capacity] could never be admitted: the record
   trigger is capped at the capacity.

   [submit] does not retry: a failed batch fails every caller, and each
   caller's own retry loop re-submits — so retried entries re-coalesce
   into fresh batches (and Erwin-st can re-send its shard data writes in
   lockstep with the metadata retry). Replicas that already accepted an
   entry filter the retry as a duplicate and still ack it. *)

let max_batch_records = 128
let max_batch_bytes = 64 * 1024

type t = {
  cluster : Erwin_common.t;
  linger : Engine.time;
  ep : (Proto.req, Proto.resp) Ll_net.Rpc.endpoint;
  (* The open batch, each list newest first. *)
  mutable entries : Types.entry list;
  mutable tracked : Types.Rid.t list;
  mutable waiters : [ `Ok | `Fail of int ] Ivar.t list;
  mutable count : int;
  mutable bytes : int;
  mutable gen : int;  (* bumped per flush; stale linger timers no-op *)
  mutable flushes : int;
  mutable flushed_records : int;
}

let flush t =
  if t.count > 0 then begin
    let entries = List.rev t.entries in
    let tracked = List.rev t.tracked in
    let waiters = List.rev t.waiters in
    let n = t.count in
    t.entries <- [];
    t.tracked <- [];
    t.waiters <- [];
    t.count <- 0;
    t.bytes <- 0;
    t.gen <- t.gen + 1;
    t.flushes <- t.flushes + 1;
    t.flushed_records <- t.flushed_records + n;
    let cluster = t.cluster in
    Engine.spawn ~name:"append.batcher" (fun () ->
        let view = cluster.Erwin_common.view in
        let req = Proto.Sr_append { view; entries; tracked } in
        let ok = Erwin_common.seq_append cluster t.ep req in
        let result = if ok then `Ok else `Fail view in
        List.iter (fun w -> Ivar.fill w result) waiters)
  end

let submit t ~track entry =
  let cfg = t.cluster.Erwin_common.cfg in
  let done_ = Ivar.create () in
  t.entries <- entry :: t.entries;
  if track then t.tracked <- Types.entry_rid entry :: t.tracked;
  t.waiters <- done_ :: t.waiters;
  t.count <- t.count + 1;
  t.bytes <- t.bytes + Types.entry_wire_size entry;
  if
    t.count >= min max_batch_records cfg.Config.seq_capacity
    || t.bytes >= max_batch_bytes
  then flush t
  else if t.count = 1 then begin
    (* First record of a batch arms the linger deadline. [linger = 0]
       still coalesces: the timer fires after every currently-runnable
       fiber has had the chance to enqueue its append. *)
    let gen = t.gen in
    Engine.after t.linger (fun () -> if t.gen = gen then flush t)
  end;
  Ivar.read done_

let make cluster ~linger =
  let ep = Erwin_common.new_endpoint cluster ~name:"append.batcher" in
  let t =
    {
      cluster;
      linger;
      ep;
      entries = [];
      tracked = [];
      waiters = [];
      count = 0;
      bytes = 0;
      gen = 0;
      flushes = 0;
      flushed_records = 0;
    }
  in
  {
    Erwin_common.submit_entry = (fun ~track entry -> submit t ~track entry);
    batch_stats = (fun () -> (t.flushes, t.flushed_records));
  }

let get (cluster : Erwin_common.t) ~linger ~log =
  match Hashtbl.find_opt cluster.append_batchers log with
  | Some b -> b
  | None ->
    let b = make cluster ~linger in
    Hashtbl.add cluster.append_batchers log b;
    b
