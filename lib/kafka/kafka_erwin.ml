open Ll_sim
open Lazylog

let create ?(cfg = Config.default) ?(kafka_config = Kafka.default_config) () =
  (* No native shards: the log's ordered portion lives in Kafka. *)
  let cfg = { cfg with Config.nshards = 0 } in
  let cluster = Erwin_common.create ~cfg ~mode:Erwin_common.M in
  let kafka = Kafka.create ~config:kafka_config () in
  let nparts = Kafka.partitions kafka in
  let ep = Erwin_common.new_endpoint cluster ~name:"kafka-orderer" in
  (* Background ordering: leader log -> positioned batches -> Kafka
     partitions (position mod npartitions), then GC and stable-gp. *)
  Engine.spawn ~name:"kafka-erwin.orderer" (fun () ->
      let rec loop () =
        Engine.sleep cfg.Config.order_interval;
        let ldr = Erwin_common.leader cluster in
        if
          Ll_net.Fabric.is_alive (Seq_replica.node ldr)
          && not (Seq_replica.is_sealed ldr)
        then begin
          let slog = Seq_replica.log ldr in
          let entries = Seq_log.unordered slog ~max:cfg.Config.max_batch () in
          if entries <> [] then begin
            let base = Seq_log.last_ordered_gp slog ~log:0 in
            let slots = List.mapi (fun i e -> (base + i, e)) entries in
            let groups = Array.make nparts [] in
            List.iter
              (fun (gp, entry) ->
                match (entry : Types.entry) with
                | Types.Data r -> groups.(gp mod nparts) <- r :: groups.(gp mod nparts)
                | Types.Meta _ -> assert false)
              slots;
            let pushes =
              List.filter_map Fun.id
                (List.init nparts (fun pid ->
                     match List.rev groups.(pid) with
                     | [] -> None
                     | batch ->
                       let iv = Ivar.create () in
                       Engine.spawn (fun () ->
                           ignore
                             (Kafka.produce_batch kafka ~partition:pid batch
                               : int);
                           Ivar.fill iv ());
                       Some iv))
            in
            ignore (Ivar.join_all pushes : unit list);
            let gc_slots =
              List.map (fun (gp, e) -> (gp, Types.entry_rid e)) slots
            in
            let new_gp = base + List.length entries in
            Seq_replica.apply_gc ldr ~frontiers:[ new_gp ] ~slots:gc_slots;
            let view = cluster.Erwin_common.view in
            let dsts = List.map Seq_replica.node_id (Erwin_common.followers cluster) in
            let req = Proto.Sr_gc { view; slots = gc_slots; new_gp } in
            ignore (Ll_net.Rpc.(group_join (fan_out ep dsts req)) : bool);
            cluster.Erwin_common.stable_gp <- new_gp;
            cluster.Erwin_common.batches <- cluster.Erwin_common.batches + 1;
            cluster.Erwin_common.batched_entries <-
              cluster.Erwin_common.batched_entries + List.length entries
          end
        end;
        loop ()
      in
      loop ());
  (cluster, kafka)

let client ((cluster, kafka) : Erwin_common.t * Kafka.t) : Log_api.t =
  let cid = Erwin_common.fresh_client_id cluster in
  let ep =
    Erwin_common.new_endpoint cluster
      ~name:(Printf.sprintf "kafka-erwin-client%d" cid)
  in
  let nparts = Kafka.partitions kafka in
  let seq = ref 0 in
  let append ~size ~data =
    incr seq;
    let rid = { Types.Rid.client = cid; seq = !seq } in
    let r = Types.record ~rid ~size ~data () in
    Client_core.append_entry cluster ep ~track:false (Types.Data r);
    true
  in
  let read ~from ~len =
    (* Serve only the stable (Kafka-resident) portion; wait otherwise. *)
    let rec wait_stable () =
      if cluster.Erwin_common.stable_gp < from + len then begin
        Engine.sleep cluster.Erwin_common.cfg.Config.order_interval;
        wait_stable ()
      end
    in
    wait_stable ();
    let out = ref [] in
    for pid = 0 to nparts - 1 do
      let offsets =
        List.filter_map
          (fun gp -> if gp mod nparts = pid then Some (gp / nparts) else None)
          (List.init len (fun i -> from + i))
      in
      match offsets with
      | [] -> ()
      | lo :: _ as offsets ->
        let hi = List.fold_left max lo offsets in
        let records =
          Kafka.fetch kafka ~partition:pid ~offset:lo ~max:(hi - lo + 1)
        in
        List.iter
          (fun o ->
            match List.assoc_opt o records with
            | Some r -> out := ((o * nparts) + pid, r) :: !out
            | None -> ())
          offsets
    done;
    List.sort (fun (a, _) (b, _) -> Int.compare a b) !out |> List.map snd
  in
  {
    Log_api.name = "erwin-m/kafka";
    append;
    read;
    check_tail = (fun () -> Client_core.check_tail cluster ep);
    trim = (fun ~upto:_ -> true);
    append_sync = None;
  }
