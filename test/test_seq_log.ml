(* Tests of the sequencing log: its claim cursor — the mechanism that
   lets overlapping (pipelined) ordering batches select disjoint entry
   sets while claimed entries stay live for capacity accounting,
   duplicate filtering, and recovery flushes — and its slot ring, the
   paper's section 5.6 ring buffer, against a model. *)

open Ll_sim
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let rid c s = { Types.Rid.client = c; seq = s }

let entry c s =
  Types.Data
    (Types.record ~rid:(rid c s) ~size:64 ~data:(string_of_int s) ())

let data = function
  | Types.Data r -> r.Types.data
  | Types.Meta _ -> Alcotest.fail "expected data entry"

let mk n =
  let t = Seq_log.create ~capacity:1024 in
  for i = 1 to n do
    match Seq_log.try_append t (entry 0 i) with
    | Some Seq_log.Appended -> ()
    | _ -> Alcotest.fail "append failed"
  done;
  t

let test_claim_takes_in_order () =
  let t = mk 5 in
  let batch = Seq_log.claim_unordered t ~max:3 in
  checki "claims up to max" 3 (Array.length batch);
  Alcotest.(check (list string))
    "log order" [ "1"; "2"; "3" ]
    (Array.to_list (Array.map data batch));
  checki "claimed entries still live" 5 (Seq_log.live_count t);
  checki "unclaimed shrinks" 2 (Seq_log.unclaimed_count t)

let test_claims_are_disjoint () =
  let t = mk 6 in
  let a = Seq_log.claim_unordered t ~max:4 in
  let b = Seq_log.claim_unordered t ~max:4 in
  checki "first claim full" 4 (Array.length a);
  checki "second claim gets the rest" 2 (Array.length b);
  let rids e = Types.entry_rid e in
  Array.iter
    (fun ea ->
      Array.iter
        (fun eb ->
          if Types.Rid.equal (rids ea) (rids eb) then
            Alcotest.fail "entry claimed twice")
        b)
    a;
  checki "nothing left unclaimed" 0 (Seq_log.unclaimed_count t);
  checki "empty claim" 0 (Array.length (Seq_log.claim_unordered t ~max:4))

let test_remove_ordered_updates_claim_accounting () =
  let t = mk 4 in
  let batch = Seq_log.claim_unordered t ~max:2 in
  Seq_log.remove_ordered t
    (Array.to_list (Array.map Types.entry_rid batch));
  checki "live drops" 2 (Seq_log.live_count t);
  checki "unclaimed unaffected by GC of claimed batch" 2
    (Seq_log.unclaimed_count t);
  let rest = Seq_log.claim_unordered t ~max:10 in
  checki "remaining entries claimable" 2 (Array.length rest)

let test_reset_claims_reexposes_entries () =
  let t = mk 3 in
  let a = Seq_log.claim_unordered t ~max:3 in
  checki "all claimed" 3 (Array.length a);
  checki "nothing unclaimed" 0 (Seq_log.unclaimed_count t);
  (* A discarded in-flight batch: forget the claims, entries come back. *)
  Seq_log.reset_claims t;
  checki "unclaimed restored" 3 (Seq_log.unclaimed_count t);
  let b = Seq_log.claim_unordered t ~max:3 in
  checki "reclaimable" 3 (Array.length b)

let test_clear_resets_claims () =
  let t = mk 3 in
  ignore (Seq_log.claim_unordered t ~max:2 : Types.entry array);
  Seq_log.clear t;
  checki "no live entries" 0 (Seq_log.live_count t);
  checki "no unclaimed entries" 0 (Seq_log.unclaimed_count t);
  checki "claim on cleared log is empty" 0
    (Array.length (Seq_log.claim_unordered t ~max:4));
  (* Fresh appends after the reset are claimable again. *)
  (match Seq_log.try_append t (entry 1 1) with
  | Some Seq_log.Appended -> ()
  | _ -> Alcotest.fail "append after clear failed");
  checki "fresh entry claimable" 1
    (Array.length (Seq_log.claim_unordered t ~max:4))

let test_unordered_includes_claimed () =
  (* The recovery flush reads [unordered]; claimed-but-unGCed entries must
     be part of it or a view change would lose them. *)
  let t = mk 4 in
  ignore (Seq_log.claim_unordered t ~max:2 : Types.entry array);
  checki "unordered sees claimed entries" 4
    (List.length (Seq_log.unordered t))

(* --- the slot ring (the paper's ring buffer) --- *)

let rids_of t =
  List.map (fun e -> Types.entry_rid e) (Seq_log.unordered t)

let test_ring_basic () =
  let t = Seq_log.create ~capacity:4 in
  let app c s = Seq_log.try_append t (entry c s) in
  for s = 1 to 4 do
    checkb "appended" true (app 0 s = Some Seq_log.Appended)
  done;
  checkb "full" true (app 0 5 = None);
  checkb "live duplicate still acks" true (app 0 2 = Some Seq_log.Duplicate);
  (* Out of order: the head stays live, so the ring keeps its span. *)
  Seq_log.remove_ordered t [ rid 0 3; rid 0 2 ];
  checki "live" 2 (Seq_log.live_count t);
  checkb "removed" false (Seq_log.mem t (rid 0 3));
  checkb "ordered rid is known" true (Seq_log.known t (rid 0 3));
  checkb "appends again" true (app 1 1 = Some Seq_log.Appended);
  Alcotest.(check (list (pair int int)))
    "log order across the hole"
    [ (0, 1); (0, 4); (1, 1) ]
    (List.map (fun (r : Types.Rid.t) -> (r.client, r.seq)) (rids_of t));
  (* The no-op rid packs to its own key: it never aliases a client's. *)
  checkb "no-op appends" true
    (Seq_log.try_append t (Types.Data Types.no_op) = Some Seq_log.Appended);
  checkb "no-op live" true (Seq_log.mem t Types.no_op.rid);
  checkb "client 0 seq -1 is not the no-op" false (Seq_log.mem t (rid 0 (-1)));
  checkb "client -1 seq 0 is not the no-op" false (Seq_log.mem t (rid (-1) 0));
  checkb "out-of-range rid rejected" true
    (match Seq_log.mem t (rid (-2) 0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_ring_backpressure () =
  Engine.run (fun () ->
      let t = Seq_log.create ~capacity:2 in
      ignore (Seq_log.try_append t (entry 0 1));
      ignore (Seq_log.try_append t (entry 0 2));
      let appended_at = ref (-1) in
      Engine.spawn (fun () ->
          ignore (Seq_log.append_wait t (entry 0 3) : Seq_log.append_result);
          appended_at := Engine.now ());
      Engine.sleep (Engine.us 10);
      checki "still blocked" (-1) !appended_at;
      Seq_log.remove_ordered t [ rid 0 1 ];
      Engine.sleep 1;
      checkb "unblocked after gc" true (!appended_at >= 0))

(* Random appends (each client's next seq, retries of older seqs and the
   no-op rid), removals of
   live rids in any order and of rids never appended, and clears, checked
   after every step against a model: a list of live entries in append
   order plus each client's highest ordered seq. Long runs push the span
   [next - first] past the ring's initial 64 slots while its head has
   already wrapped, so growth re-places a wrapped span. *)
type op = Append of int * int | Remove of int list | Remove_absent of int | Clear

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 30,
          map2
            (fun c back -> Append (c, if back < 8 then 0 else back - 8))
            (int_range (-1) 3) (int_bound 12) );
        (6, map (fun l -> Remove l) (list_size (int_range 1 4) (int_bound 200)));
        (2, map (fun s -> Remove_absent s) (int_bound 400));
        (1, return Clear);
      ])

let prop_ring_matches_model =
  QCheck.Test.make ~name:"ring buffer matches model" ~count:300
    (QCheck.make
       ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
       QCheck.Gen.(list_size (int_range 50 600) gen_op))
    (fun ops ->
      let capacity = 96 in
      let t = Seq_log.create ~capacity in
      let live = ref [] (* append order, oldest first *) in
      let ordered = Hashtbl.create 8 in
      let model_dup (r : Types.Rid.t) =
        List.exists (fun (x, _) -> x = r) !live
        || (r.client >= 0
           && match Hashtbl.find_opt ordered r.client with
              | Some m -> r.seq <= m
              | None -> false)
      in
      let note (r : Types.Rid.t) =
        if r.client >= 0 then
          match Hashtbl.find_opt ordered r.client with
          | Some m when m >= r.seq -> ()
          | _ -> Hashtbl.replace ordered r.client r.seq
      in
      let remove rids =
        Seq_log.remove_ordered t rids;
        List.iter
          (fun r ->
            note r;
            live := List.filter (fun (x, _) -> x <> r) !live)
          rids
      in
      let next_seq = Array.make 4 0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Append (c, back) ->
            (* Client -1 stands for the no-op rid; [back > 0] retries an
               older seq of the client. *)
            let e =
              if c < 0 then Types.Data Types.no_op
              else if back = 0 then begin
                next_seq.(c) <- next_seq.(c) + 1;
                entry c next_seq.(c)
              end
              else entry c (max 1 (next_seq.(c) - back))
            in
            let r = Types.entry_rid e in
            let want =
              if model_dup r then Some Seq_log.Duplicate
              else if List.length !live >= capacity then None
              else Some Seq_log.Appended
            in
            expect (Seq_log.try_append t e = want);
            if want = Some Seq_log.Appended then live := !live @ [ (r, e) ]
          | Remove picks ->
            let n = List.length !live in
            if n > 0 then
              remove
                (List.sort_uniq compare
                   (List.map (fun i -> fst (List.nth !live (i mod n))) picks))
          | Remove_absent s -> remove [ rid 9 s ]
          | Clear ->
            Seq_log.clear t;
            live := []);
          expect (Seq_log.live_count t = List.length !live);
          expect (Seq_log.unordered t = List.map snd !live);
          List.iter
            (fun (r, _) -> expect (Seq_log.mem t r && Seq_log.known t r))
            !live;
          expect (Seq_log.known t Types.no_op.rid = model_dup Types.no_op.rid))
        ops;
      !ok)

let () =
  Alcotest.run "seq_log"
    [
      ( "claims",
        [
          Alcotest.test_case "claim takes in order" `Quick
            test_claim_takes_in_order;
          Alcotest.test_case "claims are disjoint" `Quick
            test_claims_are_disjoint;
          Alcotest.test_case "GC updates claim accounting" `Quick
            test_remove_ordered_updates_claim_accounting;
          Alcotest.test_case "reset re-exposes entries" `Quick
            test_reset_claims_reexposes_entries;
          Alcotest.test_case "clear resets claims" `Quick
            test_clear_resets_claims;
          Alcotest.test_case "unordered includes claimed" `Quick
            test_unordered_includes_claimed;
        ] );
      ( "ring_buffer",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "backpressure" `Quick test_ring_backpressure;
          QCheck_alcotest.to_alcotest prop_ring_matches_model;
        ] );
    ]
