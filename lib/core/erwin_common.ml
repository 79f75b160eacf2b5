open Ll_sim
open Ll_net
open Ll_control

type mode = M | St

type reconfig_timings = {
  detect : Engine.time;
  seal : Engine.time;
  flush : Engine.time;
  new_view : Engine.time;
  total : Engine.time;
}

type orderer_metrics = {
  stable_lag : Stats.Reservoir.t;
  mutable largest_batch : int;
}

let fresh_metrics () =
  {
    stable_lag = Stats.Reservoir.create ~name:"stable_lag" ();
    largest_batch = 0;
  }

(* A per-process, per-log append batcher, as closures so [Batcher] can
   live in a module that depends on this one (no cycle). *)
type batch_submit = {
  submit_entry : track:bool -> Types.entry -> [ `Ok | `Fail of int ];
      (** Enqueue one append into the open linger batch and block until its
          batch's fan-out resolves. [`Fail view] reports the view the batch
          was attempted in, for the caller's view-change wait. *)
  batch_stats : unit -> int * int;
      (** (flushes so far, records batched so far). *)
}

type t = {
  cfg : Config.t;
  mode : mode;
  fabric : (Proto.req, Proto.resp) Rpc.msg Fabric.t;
  zk : Zookeeper.t;
  mutable view : int;
  mutable replicas : Seq_replica.t list;
  mutable shards : Shard.t list;
  mutable stable_gp : int;
  mutable reconfiguring : bool;
  view_changed : Waitq.t;
  mutable next_client : int;
  mutable crash_time : Engine.time option;
  mutable reconfig_log : reconfig_timings list;
  order_idle : Ll_sim.Waitq.t;
  mutable batches : int;
  mutable batched_entries : int;
  mutable shard_index : Shard.t array;
  mutable inflight_batches : int;
  mutable cur_batch : int;
  mutable order_resync : bool;
  metrics : orderer_metrics;
  append_batchers : (int, batch_submit) Hashtbl.t;  (* by log *)
  demand : Log_table.t;
  (* Tenant logs' stable frontiers, packed ([stable_gp] serves log 0:
     the benchmark reads that field). *)
  stable_gps : (int, int) Hashtbl.t;
  order_wake : Waitq.t;
  mutable orderer_node : Fabric.node_id option;
  mutable on_stable : (int -> unit) option;
}

let create ~cfg ~mode =
  let fabric = Fabric.create ~link:cfg.Config.link () in
  let zk = Zookeeper.create () in
  let replicas =
    List.init cfg.Config.seq_replica_count (fun i ->
        let name = if i = 0 then "seq.leader" else Printf.sprintf "seq.f%d" i in
        Seq_replica.create ~cfg ~fabric ~name)
  in
  let shards =
    List.init cfg.Config.nshards (fun i -> Shard.create ~cfg ~fabric ~shard_id:i)
  in
  let t =
    {
      cfg;
      mode;
      fabric;
      zk;
      view = 0;
      replicas;
      shards;
      stable_gp = 0;
      reconfiguring = false;
      view_changed = Waitq.create ();
      next_client = 0;
      crash_time = None;
      reconfig_log = [];
      order_idle = Waitq.create ();
      batches = 0;
      batched_entries = 0;
      shard_index = Array.of_list shards;
      inflight_batches = 0;
      cur_batch = min cfg.Config.min_batch cfg.Config.max_batch;
      order_resync = false;
      metrics = fresh_metrics ();
      append_batchers = Hashtbl.create 1;
      demand = Log_table.create ~default:(fun log -> Logid.base ~log);
      stable_gps = Hashtbl.create 16;
      order_wake = Waitq.create ();
      orderer_node = None;
      on_stable = None;
    }
  in
  List.iter
    (fun r ->
      let node = Seq_replica.node r in
      Zookeeper.start_session zk ~name:(Seq_replica.name r) ~alive:(fun () ->
          Fabric.is_alive node))
    replicas;
  t

let leader t =
  match t.replicas with
  | r :: _ -> r
  | [] -> failwith "erwin: no sequencing replicas left"

let followers t = match t.replicas with [] -> [] | _ :: rest -> rest

(* Shards indexed by id: O(1) lookup on the read and placement hot paths
   (shard ids are dense, assigned in creation order). *)
let shard_by_id t sid = t.shard_index.(sid)

let shard_of_position t p =
  t.shard_index.(p mod Array.length t.shard_index)

(* The client-visible stable frontier: log 0 in the [stable_gp] field,
   tenant logs in [stable_gps]. *)

let stable_for t ~log =
  if log = 0 then t.stable_gp
  else
    match Hashtbl.find_opt t.stable_gps log with
    | Some g -> g
    | None -> Logid.base ~log

let note_stable_log t gp =
  let log = Logid.log_of gp in
  if gp <= stable_for t ~log then false
  else begin
    if log = 0 then t.stable_gp <- gp
    else Hashtbl.replace t.stable_gps log gp;
    true
  end

let demand_for t ~log = Log_table.get t.demand log

let note_demand t upto =
  ignore (Log_table.merge t.demand (Logid.log_of upto) upto : bool)

let add_shard t =
  let s =
    Shard.create ~cfg:t.cfg ~fabric:t.fabric
      ~shard_id:(Array.length t.shard_index)
  in
  t.shards <- t.shards @ [ s ];
  t.shard_index <- Array.append t.shard_index [| s |];
  (if t.cfg.Config.read_demand then
     match t.orderer_node with
     | Some n -> Shard.set_demand_target s (Some n)
     | None -> ());
  s

let fresh_client_id t =
  let id = t.next_client in
  t.next_client <- id + 1;
  id

let avg_batch t =
  if t.batches = 0 then 0.0
  else float_of_int t.batched_entries /. float_of_int t.batches

let new_endpoint t ~name =
  let node =
    Fabric.add_node t.fabric ~name ~send_overhead:t.cfg.Config.rpc_overhead
      ~recv_overhead:t.cfg.Config.rpc_overhead ()
  in
  Rpc.endpoint t.fabric node

let seq_group_calls t g req =
  let size = Proto.req_size req in
  List.iter
    (fun r -> Rpc.group_call g ~dst:(Seq_replica.node_id r) ~size req)
    t.replicas

let append_ok = function Proto.R_append { ok; _ } -> ok | _ -> false

let seq_append t ep req =
  let g = Rpc.group ep (List.length t.replicas) in
  seq_group_calls t g req;
  Rpc.group_await g ~timeout:t.cfg.Config.append_timeout
  && Rpc.group_for_all g append_ok

let crash_replica t r =
  t.crash_time <- Some (Engine.now ());
  Fabric.crash t.fabric (Seq_replica.node r);
  (* After the fabric crash, so a probe handler inspecting the cluster
     sees the post-crash survivor set. *)
  if Probe.active () then
    Probe.emit (Probe.Crashed { node = Fabric.id (Seq_replica.node r) })
