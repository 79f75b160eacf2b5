open Ll_sim
open Lazylog

let create ?(cfg = Config.default) ?(kafka_config = Kafka.default_config) () =
  (* No native shards: the log's ordered portion lives in Kafka. *)
  let cfg = { cfg with Config.nshards = 0 } in
  let cluster = Erwin_common.create ~cfg ~mode:Erwin_common.M in
  let kafka = Kafka.create ~config:kafka_config () in
  let n = Kafka.partitions kafka in
  let conn = Kafka.connect kafka ~name:"kafka-erwin.orderer" in
  (* The orderer's push: position gp goes to partition gp mod n. Batches
     leave one node in position order, so each partition appends its
     slices in order and gp lands at offset gp / n. *)
  let push slots =
    let slices = Array.make n [] in
    for i = Array.length slots - 1 downto 0 do
      match slots.(i) with
      | gp, Types.Data r -> slices.(gp mod n) <- r :: slices.(gp mod n)
      | _, Types.Meta _ -> assert false
    done;
    Kafka.produce_slices conn slices
  in
  Orderer.run cluster
    (Erwin_common.new_endpoint cluster ~name:"kafka-orderer")
    ~push ~join:Kafka.await_produces;
  (cluster, kafka)

let client ((cluster, kafka) : Erwin_common.t * Kafka.t) : Log_api.t =
  let cid = Erwin_common.fresh_client_id cluster in
  let ep =
    Erwin_common.new_endpoint cluster
      ~name:(Printf.sprintf "kafka-erwin-client%d" cid)
  in
  let conn =
    Kafka.connect kafka ~name:(Printf.sprintf "kafka-erwin-client%d" cid)
  in
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
    Kafka.read conn ~from ~len
  in
  {
    Log_api.name = "erwin-m/kafka";
    append;
    read;
    check_tail = (fun () -> Client_core.check_tail cluster ep);
    trim = (fun ~upto:_ -> true);
    append_sync = None;
  }
