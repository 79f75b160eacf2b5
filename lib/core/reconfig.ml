open Ll_sim
open Ll_net
open Ll_control
open Erwin_common

let config_path = "/erwin/config"

let serialize_config ~view replicas =
  Printf.sprintf "view=%d members=%s" view
    (String.concat "," (List.map Seq_replica.name replicas))

let run_view_change (cluster : t) ep ~detect ?(exclude = fun _ -> false) () =
  let start = Engine.now () in
  let old_view = cluster.view in
  let survivors =
    List.filter
      (fun r -> Fabric.is_alive (Seq_replica.node r) && not (exclude r))
      cluster.replicas
  in
  if survivors = [] then
    (* More than f failures: remain (safely) unavailable, section 4.1. *)
    cluster.reconfiguring <- false
  else begin
    (* Seal: no new records can commit in the old view, because clients
       need acks from all replicas of that view. *)
    let t0 = Engine.now () in
    (* Seals and installs are idempotent; retried round by round so a
       lossy network cannot wedge a view change halfway. A survivor that
       crashes meanwhile is not sent to again (its 50 rounds would stall
       the view change) and, crashed while sealed, is left out. *)
    let alive r = Fabric.is_alive (Seq_replica.node r) in
    let rec retried ?(tries = 50) req targets =
      let dsts = List.map Seq_replica.node_id targets in
      let size = Proto.req_size req in
      let g = Rpc.fan_out ep dsts ~round:(Engine.ms 10) ~tries:1 ~size req in
      if (not (Rpc.group_join g)) && tries > 1 then
        retried ~tries:(tries - 1) req
          (List.filteri (fun m r -> Rpc.group_reply g m = None && alive r) targets)
    in
    retried (Proto.Sr_seal { view = old_view }) survivors;
    let survivors =
      match List.filter alive survivors with [] -> survivors | s -> s
    in
    (* Let any in-flight background push finish before overwriting tails. *)
    Orderer.wait_idle cluster;
    let seal_d = Engine.now () - t0 in
    (* Flush the recovery replica's unordered log. Any survivor is safe;
       we pick the first that answers. One that crashes meanwhile is
       passed over at its next timeout, and with every one of them gone
       the layer stays (safely) unavailable, as above. *)
    let t0 = Engine.now () in
    let rec get_state tries r =
      if not (alive r) then None
      else
        match
          Rpc.call_timeout ep ~dst:(Seq_replica.node_id r)
            ~timeout:(Engine.ms 10) Proto.Sr_get_state
        with
        | Some (Proto.R_state { frontiers; entries }) ->
          Some (frontiers, entries)
        | Some _ -> failwith "reconfig: bad get_state response"
        | None when tries <= 1 && alive r ->
          failwith "reconfig: recovery replica unreachable"
        | None -> get_state (tries - 1) r
    in
    let rec recover = function
      | [] -> None
      | r :: rest as survivors -> (
        match get_state 50 r with
        | Some state -> Some (state, survivors)
        | None -> recover rest)
    in
    match recover survivors with
    | None -> cluster.reconfiguring <- false
    | Some ((frontiers, entries), survivors) ->
      (* Reassign each surviving unordered entry from its own log's
         recovered frontier, with the orderer's assignment, and truncate
         every log that could hold half-pushed positions from that
         frontier: log 0 and each log with a replicated frontier or a
         surviving entry. *)
      let fronts = Log_table.create ~default:(fun log -> Logid.base ~log) in
      Log_table.set_packed fronts frontiers;
      List.iter
        (fun e ->
          let log = Types.entry_log e in
          ignore (Log_table.merge fronts log (Logid.base ~log) : bool))
        entries;
      let truncate = Log_table.to_list fronts in
      let slots, _ =
        Orderer.assign_positions ~cursors:fronts (Array.of_list entries)
      in
      let slots = Array.to_list slots in
      (* Every frontier, advanced or not: the new view installs the whole
         table. *)
      let frontiers = Log_table.to_list fronts in
      Orderer.push cluster ep ~truncate slots;
      let flush_d = Engine.now () - t0 in
      (* New view: configuration to ZooKeeper first, then install, and only
         then advance stable-gp. *)
      let t0 = Engine.now () in
      let new_view = old_view + 1 in
      Zookeeper.set_data cluster.zk ~path:config_path
        ~data:(serialize_config ~view:new_view survivors);
      let flushed = List.map (fun (p, e) -> (p, Types.entry_rid e)) slots in
      retried
        (Proto.Sr_install_view { new_view; frontiers; flushed })
        survivors;
      cluster.replicas <- survivors;
      cluster.view <- new_view;
      List.iter (Orderer.broadcast_stable cluster ep) frontiers;
      let new_view_d = Engine.now () - t0 in
      cluster.reconfiguring <- false;
      cluster.crash_time <- None;
      cluster.reconfig_log <-
        {
          detect;
          seal = seal_d;
          flush = flush_d;
          new_view = new_view_d;
          total = detect + (Engine.now () - start);
        }
        :: cluster.reconfig_log;
      Waitq.broadcast cluster.view_changed
  end

(* A second failure during a view change is swallowed by the
   [reconfiguring] guard: once the view change ends, re-check. *)
let view_change (cluster : t) ep ~detect ?exclude () =
  run_view_change cluster ep ~detect ?exclude ();
  if
    List.exists
      (fun r -> not (Fabric.is_alive (Seq_replica.node r)))
      cluster.replicas
    && not cluster.reconfiguring
  then begin
    cluster.reconfiguring <- true;
    run_view_change cluster ep ~detect:0 ()
  end

let trigger (cluster : t) ep =
  if not cluster.reconfiguring then begin
    cluster.reconfiguring <- true;
    let detect =
      match cluster.crash_time with
      | Some t -> Engine.now () - t
      | None -> 0
    in
    Engine.spawn ~name:"controller.view-change" (fun () ->
        view_change cluster ep ~detect ())
  end

let remove_replica (cluster : t) victim =
  (* Straggler mitigation (section 5.5): reconfigure a live but slow
     replica out of the sequencing layer. The view change is the ordinary
     one; the victim is simply left out of the new configuration (and,
     being sealed in the old view, can never commit anything again). *)
  if not cluster.reconfiguring then begin
    cluster.reconfiguring <- true;
    let ep = new_endpoint cluster ~name:"controller.remove" in
    view_change cluster ep ~detect:0
      ~exclude:(fun r ->
        String.equal (Seq_replica.name r) (Seq_replica.name victim))
      ()
  end

let outlier_interval = Engine.us 500
let outlier_factor = 4.0
let outlier_min_samples = 8

(* Latency-outlier health monitor: the section 4.5 detector is a ZK
   heartbeat timeout, which a fail-slow (gray) replica sails through —
   heartbeats are tiny and out-of-band, so a replica serving appends 10x
   slower still looks alive. This monitor probes every sequencing replica
   on a fixed cadence ([Sr_check_tail] answers cheaply in any view, so it
   doubles as a latency ping), scores responses with the RPC layer's
   per-peer EWMA/deviation statistics, and evicts a replica whose score
   exceeds [outlier_factor] x the median via section 5.5 straggler
   removal. Guards: every current replica must have [outlier_min_samples]
   samples, at least 3 replicas must remain (never shrink below 2), and
   eviction yields to any in-flight reconfiguration. After an eviction the
   survivors' statistics are forgotten — a fresh window, so congestion
   caused by the departed straggler cannot cascade into a second
   eviction. *)
let start_outlier_monitor (cluster : t) =
  let ep = new_endpoint cluster ~name:"controller.gray" in
  Engine.spawn ~name:"controller.gray-monitor" (fun () ->
      let rec loop () =
        Engine.sleep outlier_interval;
        let replicas = cluster.replicas in
        if (not cluster.reconfiguring) && List.length replicas >= 3 then begin
          (* One probe round: a group awaited on its own fiber, so one
             unresponsive replica cannot stall the cadence. On expiry the
             group drops its unanswered calls, so dead peers leak
             nothing. A probe that blows its deadline is censored
             evidence of slowness, not no evidence: without a sample at
             the timeout bound, a severely fail-slow replica would score
             healthier than a mildly slow one. *)
          Engine.spawn ~name:"controller.gray-probe" (fun () ->
              let timeout = 2 * outlier_interval in
              let dsts = List.map Seq_replica.node_id replicas in
              let g =
                Rpc.fan_out ep dsts
                  (Proto.Sr_check_tail { view = cluster.view; log = 0 })
              in
              if not (Rpc.group_await g ~timeout) then
                List.iteri
                  (fun m dst ->
                    if Option.is_none (Rpc.group_reply g m) then
                      Rpc.note_peer_sample ep dst timeout)
                  dsts);
          let scores =
            List.filter_map
              (fun r ->
                let id = Seq_replica.node_id r in
                if Rpc.peer_samples ep id >= outlier_min_samples then
                  match Rpc.peer_score ep id with
                  | Some s -> Some (r, s)
                  | None -> None
                else None)
              replicas
          in
          if List.length scores = List.length replicas then begin
            let sorted =
              List.sort (fun (_, a) (_, b) -> Float.compare a b) scores
            in
            let median = snd (List.nth sorted ((List.length sorted - 1) / 2)) in
            match List.rev sorted with
            | (victim, worst) :: _
              when median > 0.0
                   && worst > outlier_factor *. median
                   && not cluster.reconfiguring ->
              if Probe.active () then
                Probe.emit
                  (Probe.Outlier_removed { node = Seq_replica.node_id victim });
              remove_replica cluster victim;
              List.iter
                (fun (r, _) -> Rpc.forget_peer ep (Seq_replica.node_id r))
                scores
            | _ -> ()
          end
        end;
        loop ()
      in
      loop ())

let start (cluster : t) =
  let ep = new_endpoint cluster ~name:"controller" in
  ignore
    (Zookeeper.create_znode cluster.zk ~path:config_path
       ~data:(serialize_config ~view:0 cluster.replicas)
      : bool);
  Zookeeper.on_session_expired cluster.zk (fun name ->
      let member =
        List.exists (fun r -> String.equal (Seq_replica.name r) name)
          cluster.replicas
      in
      if member then trigger cluster ep);
  if cluster.cfg.Config.outlier_detection then start_outlier_monitor cluster
