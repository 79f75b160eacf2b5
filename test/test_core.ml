(* Tests for core types and the sequencing-replica log (Seq_log): ordering,
   duplicate filtering, rid-keyed GC, capacity backpressure, view reset. *)

open Ll_sim
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let rid c s = { Types.Rid.client = c; seq = s }

let data c s = Types.Data (Types.record ~rid:(rid c s) ~size:100 ())

let rids entries = List.map Types.entry_rid entries

(* --- Types --- *)

let test_rid_compare () =
  checkb "equal" true (Types.Rid.equal (rid 1 2) (rid 1 2));
  checkb "order by client" true (Types.Rid.compare (rid 1 9) (rid 2 0) < 0);
  checkb "order by seq" true (Types.Rid.compare (rid 1 1) (rid 1 2) < 0)

let test_entry_sizes () =
  checki "data size" 4096 (Types.entry_wire_size (Types.Data (Types.record ~rid:(rid 0 1) ~size:4096 ())));
  checki "meta size" Types.meta_size
    (Types.entry_wire_size
       (Types.Meta { rid = rid 0 1; shard = 2; size = 4096; log = 0 }));
  checkb "no-op detected" true (Types.is_no_op Types.no_op);
  checkb "normal record is not no-op" false
    (Types.is_no_op (Types.record ~rid:(rid 0 1) ~size:1 ()))

(* --- Seq_log --- *)

let test_append_order () =
  let l = Seq_log.create ~capacity:16 in
  List.iter
    (fun e -> assert (Seq_log.append_wait l e = Seq_log.Appended))
    [ data 0 1; data 1 1; data 0 2 ];
  Alcotest.(check (list (pair int int)))
    "log order"
    [ (0, 1); (1, 1); (0, 2) ]
    (List.map
       (fun (r : Types.Rid.t) -> (r.client, r.seq))
       (rids (Seq_log.unordered l)))

let test_duplicate_live () =
  let l = Seq_log.create ~capacity:16 in
  ignore (Seq_log.append_wait l (data 0 1));
  checkb "live duplicate" true (Seq_log.append_wait l (data 0 1) = Seq_log.Duplicate);
  checki "one live entry" 1 (Seq_log.live_count l)

let test_duplicate_after_gc () =
  let l = Seq_log.create ~capacity:16 in
  ignore (Seq_log.append_wait l (data 0 1));
  ignore (Seq_log.append_wait l (data 0 2));
  Seq_log.remove_ordered l [ rid 0 1; rid 0 2 ];
  checki "empty" 0 (Seq_log.live_count l);
  (* A retry of an ordered rid must be filtered. *)
  checkb "ordered duplicate" true
    (Seq_log.append_wait l (data 0 2) = Seq_log.Duplicate);
  (* But a fresh sequence number is accepted. *)
  checkb "fresh accepted" true (Seq_log.append_wait l (data 0 3) = Seq_log.Appended)

let test_remove_arbitrary_set () =
  (* Followers remove the ordered batch by rid even when interleaved with
     other entries. *)
  let l = Seq_log.create ~capacity:16 in
  List.iter
    (fun e -> ignore (Seq_log.append_wait l e))
    [ data 0 1; data 9 1; data 0 2 ];
  Seq_log.remove_ordered l [ rid 0 1; rid 0 2 ];
  Alcotest.(check (list (pair int int)))
    "survivor" [ (9, 1) ]
    (List.map
       (fun (r : Types.Rid.t) -> (r.client, r.seq))
       (rids (Seq_log.unordered l)))

let test_capacity_backpressure () =
  Engine.run (fun () ->
      let l = Seq_log.create ~capacity:2 in
      ignore (Seq_log.append_wait l (data 0 1));
      ignore (Seq_log.append_wait l (data 0 2));
      let unblocked = ref false in
      Engine.spawn (fun () ->
          ignore (Seq_log.append_wait l (data 0 3));
          unblocked := true);
      Engine.sleep 10;
      checkb "blocked at capacity" false !unblocked;
      Seq_log.remove_ordered l [ rid 0 1 ];
      Engine.sleep 10;
      checkb "gc releases" true !unblocked)

let test_append_or_wait_cancel () =
  Engine.run (fun () ->
      let l = Seq_log.create ~capacity:1 in
      ignore (Seq_log.append_wait l (data 0 1));
      let sealed = ref false in
      let result = ref true in
      Engine.spawn (fun () ->
          result :=
            Seq_log.append_or_wait l [ data 0 2 ] ~cancel:(fun () -> !sealed));
      Engine.sleep 10;
      sealed := true;
      Seq_log.kick l;
      Engine.sleep 10;
      checkb "canceled" false !result)

let test_clear_keeps_filter () =
  let l = Seq_log.create ~capacity:16 in
  ignore (Seq_log.append_wait l (data 0 1));
  Seq_log.mark_ordered l [ rid 0 5 ];
  Seq_log.clear l;
  checki "cleared" 0 (Seq_log.live_count l);
  checkb "filter survives clear" true
    (Seq_log.append_wait l (data 0 3) = Seq_log.Duplicate);
  checkb "new seq accepted" true
    (Seq_log.append_wait l (data 0 6) = Seq_log.Appended)

let test_gp_counter () =
  let l = Seq_log.create ~capacity:16 in
  checki "initial" 0 (Seq_log.last_ordered_gp l ~log:0);
  Log_table.set (Seq_log.frontiers l) 0 42;
  checki "set" 42 (Seq_log.last_ordered_gp l ~log:0)

let prop_no_duplicate_rids =
  (* Whatever interleaving of appends/GCs happens, the live log never holds
     the same rid twice and filtered rids never reappear. *)
  QCheck.Test.make ~name:"seq_log never revives ordered rids" ~count:200
    QCheck.(list (pair (int_bound 3) (int_bound 20)))
    (fun ops ->
      let l = Seq_log.create ~capacity:1024 in
      let ordered = Hashtbl.create 16 in
      let ok = ref true in
      List.iteri
        (fun i (c, s) ->
          let r = rid c (s + 1) in
          (match Seq_log.append_wait l (data c (s + 1)) with
          | Seq_log.Appended ->
            if Hashtbl.mem ordered (c, s + 1) then ok := false
          | Seq_log.Duplicate -> ());
          (* Periodically order the first half of the log. *)
          if i mod 5 = 4 then begin
            let entries = Seq_log.unordered l in
            let half = List.filteri (fun j _ -> j mod 2 = 0) entries in
            let hrids = rids half in
            List.iter
              (fun (r : Types.Rid.t) ->
                Hashtbl.replace ordered (r.client, r.seq) ())
              hrids;
            Seq_log.remove_ordered l hrids
          end;
          ignore r)
        ops;
      (* no duplicates among live entries *)
      let live = rids (Seq_log.unordered l) in
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (r : Types.Rid.t) ->
          if Hashtbl.mem tbl (r.client, r.seq) then ok := false;
          Hashtbl.replace tbl (r.client, r.seq) ())
        live;
      !ok)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "types",
        [
          Alcotest.test_case "rid compare" `Quick test_rid_compare;
          Alcotest.test_case "entry sizes, no-op" `Quick test_entry_sizes;
        ] );
      ( "seq_log",
        [
          Alcotest.test_case "append order" `Quick test_append_order;
          Alcotest.test_case "duplicate while live" `Quick test_duplicate_live;
          Alcotest.test_case "duplicate after gc" `Quick
            test_duplicate_after_gc;
          Alcotest.test_case "gc arbitrary rid set" `Quick
            test_remove_arbitrary_set;
          Alcotest.test_case "capacity backpressure" `Quick
            test_capacity_backpressure;
          Alcotest.test_case "append_or_wait cancel (seal)" `Quick
            test_append_or_wait_cancel;
          Alcotest.test_case "clear keeps duplicate filter" `Quick
            test_clear_keeps_filter;
          Alcotest.test_case "last-ordered-gp" `Quick test_gp_counter;
        ]
        @ qc [ prop_no_duplicate_rids ] );
    ]
