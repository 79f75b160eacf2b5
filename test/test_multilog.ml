(* Multi-log fabric: per-tenant sequencing (packed positions, per-log
   stable cursors), weighted-fair ingress (DRR + admission control), and
   isolation across view changes. *)

open Ll_sim
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let mcfg =
  { Config.default with Config.nshards = 2 }

(* ---------- Logid packing ---------- *)

let test_logid_pack () =
  checki "log 0 packs raw" 42 (Logid.pack ~log:0 42);
  checki "log of raw" 0 (Logid.log_of 42);
  checki "pos of raw" 42 (Logid.pos_of 42);
  let p = Logid.pack ~log:7 123 in
  checki "log roundtrip" 7 (Logid.log_of p);
  checki "pos roundtrip" 123 (Logid.pos_of p);
  checki "base is pos 0" (Logid.pack ~log:7 0) (Logid.base ~log:7);
  checkb "logs ordered by id" true (Logid.pack ~log:1 0 > Logid.pack ~log:0 1000);
  checkb "dense within a log" true (Logid.pack ~log:3 5 = Logid.pack ~log:3 4 + 1);
  (match Logid.pack ~log:(-1) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative log accepted");
  match Logid.pack ~log:0 (Logid.max_pos + 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized position accepted"

(* ---------- per-log table ---------- *)

(* Random operation sequences against a [Map] model of the held logs.
   Logs are the root log 0, dense tenant ids and one high id; values sit
   around each log's packed base, so max-merges both rise and fall. *)
module Im = Map.Make (Int)

let prop_log_table_matches_model =
  let log_gen = QCheck.Gen.(oneof [ return 0; int_range 1 6; return 1000 ]) in
  let op_gen = QCheck.Gen.(triple (int_bound 7) log_gen (int_range (-3) 10)) in
  QCheck.Test.make ~name:"log_table matches Map model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 100) op_gen))
    (fun ops ->
      let default log = Logid.base ~log in
      let t = Log_table.create ~default in
      let fresh = Im.singleton 0 (default 0) in
      let m = ref fresh in
      let model_get log =
        match Im.find_opt log !m with Some v -> v | None -> default log
      in
      List.for_all
        (fun (op, log, d) ->
          let v = default log + d in
          let merged =
            match op with
            | 0 | 1 ->
              Log_table.set t log v;
              m := Im.add log v !m;
              true
            | 2 | 3 ->
              let rises = (not (Im.mem log !m)) || v > model_get log in
              if rises then m := Im.add log v !m;
              Log_table.merge t log v = rises
            | 6 ->
              Log_table.add t log d;
              m := Im.add log (model_get log + d) !m;
              true
            | 4 ->
              Log_table.reset t;
              m := fresh;
              true
            | 5 ->
              (* A frontier list: packed positions naming their logs. *)
              let gps = [ Logid.pack ~log (abs d); Logid.pack ~log:3 1 ] in
              Log_table.reset t;
              Log_table.set_packed t gps;
              m :=
                List.fold_left
                  (fun acc g -> Im.add (Logid.log_of g) g acc)
                  fresh gps;
              true
            | _ -> true
          in
          merged
          && Log_table.get t log = model_get log
          && Log_table.get t 5 = model_get 5
          && List.rev (Log_table.fold (fun l v acc -> (l, v) :: acc) t [])
             = Im.bindings !m
          && Log_table.to_list t = List.map snd (Im.bindings !m))
        ops)

let test_log_table_bounds () =
  let t = Log_table.create ~default:(fun _ -> -1) in
  checki "default for a log never set" (-1)
    (Log_table.get t (Logid.max_logs - 1));
  Alcotest.(check (list int))
    "created holding log 0" [ -1 ] (Log_table.to_list t);
  Log_table.set t 100_000 7;
  checki "high id set" 7 (Log_table.get t 100_000);
  checki "ids between stay unheld" (-1) (Log_table.get t 99_999);
  Alcotest.(check (list int)) "fold skips unheld ids" [ -1; 7 ]
    (Log_table.to_list t);
  (match Log_table.set t Logid.max_logs 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "log id past max_logs accepted");
  (* [reset] re-evaluates the default for log 0. *)
  let base = ref 5 in
  let t = Log_table.create ~default:(fun _ -> !base) in
  base := 9;
  Log_table.reset t;
  checki "log 0 reseeded on reset" 9 (Log_table.get t 0)

(* ---------- per-tenant append/read isolation ---------- *)

let tenant_roundtrip create client =
  Engine.run (fun () ->
      let cluster = create ~cfg:mcfg () in
      let logs = [ 0; 1; 5 ] in
      let handles = List.map (fun l -> (l, client ~log:l cluster)) logs in
      List.iter
        (fun (l, (h : Log_api.t)) ->
          for i = 1 to 20 do
            checkb "append acked" true
              (h.append ~size:256 ~data:(Printf.sprintf "%d-%d" l i))
          done)
        handles;
      Engine.sleep (Engine.ms 5);
      List.iter
        (fun (l, (h : Log_api.t)) ->
          checki "per-log tail" 20 (h.check_tail ());
          let records = h.read ~from:0 ~len:20 in
          checki "per-log read count" 20 (List.length records);
          List.iteri
            (fun i (r : Types.record) ->
              Alcotest.(check string)
                "tenant data in tenant order"
                (Printf.sprintf "%d-%d" l (i + 1))
                r.data)
            records)
        handles;
      (* Per-log stable cursors advanced independently. *)
      List.iter
        (fun l ->
          checki "stable cursor at tail"
            (Logid.pack ~log:l 20)
            (Erwin_common.stable_for cluster ~log:l))
        logs;
      Engine.stop ())

let test_m_tenant_roundtrip () =
  tenant_roundtrip
    (fun ~cfg () -> Erwin_m.create ~cfg ())
    (fun ~log c -> Erwin_m.client ~log c)

let test_st_tenant_roundtrip () =
  tenant_roundtrip
    (fun ~cfg () -> Erwin_st.create ~cfg ())
    (fun ~log c -> Erwin_st.client ~log c)

(* ---------- per-log cursors across a view change ---------- *)

let tenant_of (r : Types.record) = Char.code r.data.[0] - Char.code '0'

(* Two inputs. Concurrent writers with a follower crash mid-stream: the
   recovery flush must reassign each tenant's surviving entries onto that
   tenant's own frontier. And a leader crash while log 0 and both tenant
   logs hold unordered entries: every log resumes densely from its own
   recovered frontier, and no log's truncation unbinds another log's
   positions. *)
let test_cursors_survive_view_change () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create ~cfg:mcfg () in
      let logs = [ 0; 1; 2 ] in
      let handles = List.map (fun l -> (l, Erwin_m.client ~log:l cluster)) logs in
      let acked = Hashtbl.create 64 in
      let writers_done = ref 0 in
      List.iter
        (fun (l, (h : Log_api.t)) ->
          Engine.spawn (fun () ->
              for i = 1 to 60 do
                let data = Printf.sprintf "%d-%d" l i in
                if h.append ~size:256 ~data then Hashtbl.replace acked data ()
              done;
              incr writers_done))
        handles;
      Engine.after (Engine.ms 2) (fun () ->
          Erwin_common.crash_replica cluster (List.nth cluster.replicas 1));
      let wq = Waitq.create () in
      ignore
        (Waitq.await_timeout wq ~timeout:(Engine.ms 500) (fun () ->
             !writers_done = List.length logs)
          : bool);
      checki "writers finished" (List.length logs) !writers_done;
      Engine.sleep (Engine.ms 20);
      checki "view advanced" 1 cluster.Erwin_common.view;
      List.iter
        (fun (l, (h : Log_api.t)) ->
          let tail = h.check_tail () in
          checkb "tail covers acked appends" true (tail >= 1);
          let records = h.read ~from:0 ~len:tail in
          let seen = Hashtbl.create 64 in
          List.iter
            (fun (r : Types.record) ->
              (* No cross-tenant bleed: every record read from log [l]
                 was appended to log [l]... *)
              checkb
                ("tenant-pure read: " ^ r.data)
                true
                (String.length r.data >= 2 && tenant_of r = l);
              (* ...and exactly once. *)
              checkb ("no duplicate " ^ r.data) false (Hashtbl.mem seen r.data);
              Hashtbl.replace seen r.data ())
            records;
          (* Every acked record of this tenant survived into its log. *)
          Hashtbl.iter
            (fun data () ->
              if data.[0] = Char.chr (Char.code '0' + l) then
                checkb ("acked survives: " ^ data) true (Hashtbl.mem seen data))
            acked)
        handles;
      Engine.stop ());
  Engine.run (fun () ->
      (* A lazy cadence, so entries wait unordered between passes. *)
      let cluster =
        Erwin_m.create ~cfg:{ mcfg with Config.order_interval = Engine.ms 5 } ()
      in
      let logs = [ 0; 1; 2 ] in
      let handles = List.map (fun l -> (l, Erwin_m.client ~log:l cluster)) logs in
      let append_each lo hi =
        List.iter
          (fun (l, (h : Log_api.t)) ->
            for i = lo to hi do
              checkb "append acked" true
                (h.append ~size:256 ~data:(Printf.sprintf "%d-%d" l i))
            done)
          handles
      in
      append_each 1 10;
      Engine.sleep (Engine.ms 12);
      List.iter
        (fun l ->
          checki "first ten ordered" (Logid.pack ~log:l 10)
            (Erwin_common.stable_for cluster ~log:l))
        logs;
      append_each 11 15;
      let ldr = Erwin_common.leader cluster in
      List.iter
        (fun r ->
          List.iter
            (fun l ->
              checki "five unordered at the crash" 5
                (Seq_log.live_count_for (Seq_replica.log r) ~log:l))
            logs)
        cluster.Erwin_common.replicas;
      Erwin_common.crash_replica cluster ldr;
      let deadline = Engine.now () + Engine.ms 200 in
      while cluster.Erwin_common.view = 0 && Engine.now () < deadline do
        Engine.sleep (Engine.ms 1)
      done;
      checki "view advanced" 1 cluster.Erwin_common.view;
      (* The flush placed each log's survivors right after its own
         recovered frontier... *)
      List.iter
        (fun l ->
          checki "flushed onto the recovered frontier" (Logid.pack ~log:l 15)
            (Erwin_common.stable_for cluster ~log:l))
        logs;
      (* ...and the new view keeps each log dense from there. *)
      append_each 16 20;
      Engine.sleep (Engine.ms 12);
      List.iter
        (fun (l, (h : Log_api.t)) ->
          checki "per-log tail" 20 (h.check_tail ());
          Alcotest.(check (list string))
            "dense, in append order"
            (List.init 20 (fun i -> Printf.sprintf "%d-%d" l (i + 1)))
            (List.map
               (fun (r : Types.record) -> r.data)
               (h.read ~from:0 ~len:20)))
        handles;
      (* No truncation unbound another log's positions: the shards hold
         exactly positions 0..19 of every log, each with its own log's
         record. *)
      let bound =
        List.concat_map Shard.bound_positions cluster.Erwin_common.shards
      in
      List.iter
        (fun l ->
          let mine =
            List.filter (fun (gp, _) -> Logid.log_of gp = l) bound
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          Alcotest.(check (list int))
            "bound positions" (List.init 20 Fun.id)
            (List.map (fun (gp, _) -> Logid.pos_of gp) mine);
          List.iter
            (fun (_, r) ->
              checki ("bound in its own log: " ^ r.Types.data) l (tenant_of r))
            mine)
        logs;
      Engine.stop ())

(* ---------- weighted-fair ingress ---------- *)

(* Two tenants, weights 2:1, closed-loop saturation: enough concurrent
   writers of large-enough records that the sequencing replicas' CPU (not
   the network) is the bottleneck, so the DRR scheduler decides the
   service ratio. *)
let test_drr_honors_weights () =
  Engine.run (fun () ->
      let cfg =
        {
          mcfg with
          Config.fair_ingress =
            Some { Config.default_ingress with weights = [ (1, 2); (2, 1) ] };
        }
      in
      let cluster = Erwin_m.create ~cfg () in
      let served = Array.make 3 0 in
      let stop = ref false in
      List.iter
        (fun l ->
          for _f = 1 to 16 do
            let h = Erwin_m.client ~log:l cluster in
            Engine.spawn (fun () ->
                while not !stop do
                  if h.append ~size:2048 ~data:"x" then
                    served.(l) <- served.(l) + 1
                done)
          done)
        [ 1; 2 ];
      Engine.sleep (Engine.ms 30);
      stop := true;
      let r1 = float_of_int served.(1) and r2 = float_of_int served.(2) in
      checkb "both tenants served" true (served.(1) > 0 && served.(2) > 0);
      let ratio = r1 /. r2 in
      checkb
        (Printf.sprintf "2:1 weights within tolerance (got %.2f)" ratio)
        true
        (ratio > 1.5 && ratio < 2.7);
      (* The scheduler actually saw the traffic. *)
      (match Seq_replica.ingress (List.hd cluster.replicas) with
      | None -> Alcotest.fail "fair ingress not installed"
      | Some ing ->
        let s1 = Ingress.stats ing ~log:1 in
        checkb "tenant 1 admitted" true (s1.Ingress.st_admitted > 0));
      Engine.stop ())

(* Admission shed fires before a tenant's ingress queue grows without
   bound: a burst far over the queue bound is shed immediately (failed
   append, client retry path) instead of queued. *)
let test_admission_shed_bounds_queue () =
  Engine.run (fun () ->
      let cfg =
        {
          mcfg with
          Config.fair_ingress =
            Some { Config.default_ingress with queue_bound = 16 };
        }
      in
      let cluster = Erwin_m.create ~cfg () in
      let stop = ref false in
      let acked = ref 0 in
      for _f = 1 to 64 do
        let h = Erwin_m.client ~log:1 cluster in
        Engine.spawn (fun () ->
            while not !stop do
              if h.append ~size:2048 ~data:"x" then incr acked
            done)
      done;
      (* Sample the queue while the burst is in flight. *)
      let max_queued = ref 0 in
      Engine.spawn (fun () ->
          while not !stop do
            (match Seq_replica.ingress (List.hd cluster.replicas) with
            | Some ing ->
              let s = Ingress.stats ing ~log:1 in
              if s.Ingress.st_queued > !max_queued then
                max_queued := s.Ingress.st_queued
            | None -> ());
            Engine.sleep (Engine.us 50)
          done);
      Engine.sleep (Engine.ms 10);
      stop := true;
      (match Seq_replica.ingress (List.hd cluster.replicas) with
      | None -> Alcotest.fail "fair ingress not installed"
      | Some ing ->
        let s = Ingress.stats ing ~log:1 in
        checkb "shed fired" true (s.Ingress.st_shed > 0);
        checkb
          (Printf.sprintf "queue bounded (max seen %d)" !max_queued)
          true
          (!max_queued <= 16));
      checkb "progress despite shedding" true (!acked > 0);
      Engine.stop ())

(* A group-commit batch is shed as a unit: with a one-deep tenant queue,
   three concurrent tenant-log batches at one replica cannot all be
   queued, and a shed batch gets the failed-batch reply with none of its
   rids stored. *)
let test_shed_batched_append () =
  Engine.run (fun () ->
      let cfg =
        {
          mcfg with
          Config.fair_ingress =
            Some { Config.default_ingress with queue_bound = 1 };
        }
      in
      let fabric = Ll_net.Fabric.create ~link:cfg.Config.link () in
      let r = Seq_replica.create ~cfg ~fabric ~name:"r0" in
      let ep =
        Ll_net.Rpc.endpoint fabric
          (Ll_net.Fabric.add_node fabric ~name:"probe" ())
      in
      let batch c =
        List.init 4 (fun s ->
            let rid = { Types.Rid.client = c; seq = s + 1 } in
            Types.Data (Types.record ~rid ~size:128 ~log:1 ()))
      in
      let replies = Array.make 3 None in
      for c = 0 to 2 do
        Engine.spawn (fun () ->
            let req =
              Proto.Sr_append { view = 0; entries = batch c; tracked = [] }
            in
            replies.(c) <-
              Some
                (Ll_net.Rpc.call ep ~dst:(Seq_replica.node_id r)
                   ~size:(Proto.req_size req) req))
      done;
      Engine.sleep (Engine.ms 1);
      let shed = ref 0 in
      Array.iteri
        (fun c reply ->
          match reply with
          | Some (Proto.R_append { ok = false; _ }) ->
            incr shed;
            List.iter
              (fun e ->
                checkb "shed rid not stored" false
                  (Seq_log.known (Seq_replica.log r) (Types.entry_rid e)))
              (batch c)
          | Some (Proto.R_append { ok = true; _ }) -> ()
          | Some _ -> Alcotest.fail "unexpected reply"
          | None -> Alcotest.fail "batch unanswered")
        replies;
      checki "one batch shed" 1 !shed;
      match Seq_replica.ingress r with
      | None -> Alcotest.fail "fair ingress not installed"
      | Some ing ->
        let s = Ingress.stats ing ~log:1 in
        checki "stats count the shed" !shed s.Ingress.st_shed;
        checki "stats count the admitted" (3 - !shed) s.Ingress.st_admitted;
        Engine.stop ())

(* The replica has one CPU with fair ingress on, too: a tail check that
   arrives 10 us into an append's 100 us service waits for it to end,
   then takes its own service, so it is answered a full service time
   after the append (less the smaller reply's shorter wire time). *)
let test_control_waits_for_service () =
  Engine.run (fun () ->
      let base = Engine.us 100 in
      let cfg =
        {
          mcfg with
          Config.seq_base_ns = base;
          seq_per_byte_ns = 0.0;
          fair_ingress = Some Config.default_ingress;
        }
      in
      let fabric = Ll_net.Fabric.create ~link:cfg.Config.link () in
      let r = Seq_replica.create ~cfg ~fabric ~name:"r0" in
      let ep =
        Ll_net.Rpc.endpoint fabric
          (Ll_net.Fabric.add_node fabric ~name:"probe" ())
      in
      let call req =
        ignore (Ll_net.Rpc.call ep ~dst:(Seq_replica.node_id r) req)
      in
      let appended = ref 0 and checked = ref 0 in
      Engine.spawn (fun () ->
          let rid = { Types.Rid.client = 1; seq = 1 } in
          call
            (Proto.append_one ~view:0 ~track:false
               (Types.Data (Types.record ~rid ~size:128 ~log:1 ())));
          appended := Engine.now ());
      Engine.spawn (fun () ->
          Engine.sleep (Engine.us 10);
          call (Proto.Sr_check_tail { view = 0; log = 1 });
          checked := Engine.now ());
      Engine.sleep (Engine.ms 1);
      checkb "both answered" true (!appended > 0 && !checked > 0);
      checkb
        (Printf.sprintf "tail check served after the append (%d ns later)"
           (!checked - !appended))
        true
        (!checked - !appended >= base - Engine.us 1);
      Engine.stop ())

let () =
  Alcotest.run "multilog"
    [
      ( "packing",
        [ Alcotest.test_case "logid pack/unpack" `Quick test_logid_pack ] );
      ( "log_table",
        [ Alcotest.test_case "bounds and reset" `Quick test_log_table_bounds ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_log_table_matches_model ]
      );
      ( "tenants",
        [
          Alcotest.test_case "erwin-m per-tenant roundtrip" `Quick
            test_m_tenant_roundtrip;
          Alcotest.test_case "erwin-st per-tenant roundtrip" `Quick
            test_st_tenant_roundtrip;
          Alcotest.test_case "cursors survive view change" `Quick
            test_cursors_survive_view_change;
        ] );
      ( "fair ingress",
        [
          Alcotest.test_case "DRR honors 2:1 weights" `Quick
            test_drr_honors_weights;
          Alcotest.test_case "admission shed bounds the queue" `Quick
            test_admission_shed_bounds_queue;
          Alcotest.test_case "batched append shed as a unit" `Quick
            test_shed_batched_append;
          Alcotest.test_case "control plane waits for the CPU" `Quick
            test_control_waits_for_service;
        ] );
    ]
