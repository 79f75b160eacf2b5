(* The simulated hardware this benchmark was defined against. Numbers
   from different commits are comparable only if the model they run on
   is the same, so the suite checks the program's model against these
   constants at start-up and refuses to run on a mismatch: a change that
   edits the model cannot show up as a gain.

   Config fields are read directly. The disk models and the ZooKeeper
   session timeout are not Config fields, so they are measured with a
   tiny simulation of the public Disk and Zookeeper functions. *)

open Ll_sim
open Ll_net
open Lazylog

let expected =
  [
    ("link.one_way_ns", 1500.0);
    ("link.per_byte_ns", 0.32);
    ("link.jitter_ns", 300.0);
    ("endpoint_overhead_ns", 500.0);
    ("seq.base_ns", 750.0);
    ("seq.per_byte_ns", 0.55);
    ("seq.replicas", 3.0);
    ("default.shards", 1.0);
    ("default.shard_backups", 2.0);
    ("default.shard_disk_is_nvme", 0.0);
    ("scaled.shard_disk_is_nvme", 1.0);
    ("sata.base_ns", 20_000.0);
    ("sata.ns_per_byte", 7.0);
    ("nvme.base_ns", 8_000.0);
    ("nvme.ns_per_byte", 3.5);
    ("zk.session_timeout_ns", 10_000_000.0);
  ]

(* Service time of a zero-byte and a 1 MB write on a fresh device. *)
let disk_model make =
  let base = ref 0 and per_byte = ref 0.0 in
  Engine.run (fun () ->
      let d = make () in
      let t0 = Engine.now () in
      Ll_storage.Disk.write d ~bytes:0;
      base := Engine.now () - t0;
      let t1 = Engine.now () in
      Ll_storage.Disk.write d ~bytes:1_000_000;
      per_byte := float_of_int (Engine.now () - t1 - !base) /. 1e6);
  (float_of_int !base, !per_byte)

let zk_session_timeout () =
  let expired_at = ref (-1) in
  Engine.run (fun () ->
      let zk = Ll_control.Zookeeper.create () in
      Ll_control.Zookeeper.on_session_expired zk (fun _ ->
          expired_at := Engine.now ());
      Ll_control.Zookeeper.start_session zk ~name:"probe" ~alive:(fun () ->
          false));
  float_of_int !expired_at

let measured () =
  let d = Config.default and s = Config.scaled_cluster Config.default in
  let nvme c = if c.Config.shard_disk = Config.Nvme then 1.0 else 0.0 in
  let sata_base, sata_pb = disk_model Ll_storage.Disk.sata_ssd in
  let nvme_base, nvme_pb = disk_model Ll_storage.Disk.nvme_ssd in
  [
    ("link.one_way_ns", float_of_int d.Config.link.Fabric.one_way);
    ("link.per_byte_ns", d.Config.link.Fabric.per_byte_ns);
    ("link.jitter_ns", float_of_int d.Config.link.Fabric.jitter);
    ("endpoint_overhead_ns", float_of_int d.Config.rpc_overhead);
    ("seq.base_ns", float_of_int d.Config.seq_base_ns);
    ("seq.per_byte_ns", d.Config.seq_per_byte_ns);
    ("seq.replicas", float_of_int d.Config.seq_replica_count);
    ("default.shards", float_of_int d.Config.nshards);
    ("default.shard_backups", float_of_int d.Config.shard_backup_count);
    ("default.shard_disk_is_nvme", nvme d);
    ("scaled.shard_disk_is_nvme", nvme s);
    ("sata.base_ns", sata_base);
    ("sata.ns_per_byte", sata_pb);
    ("nvme.base_ns", nvme_base);
    ("nvme.ns_per_byte", nvme_pb);
    ("zk.session_timeout_ns", zk_session_timeout ());
  ]

(* Mismatches as "name: expected X, model has Y"; [] when calibrated. *)
let check () =
  let got = measured () in
  List.filter_map
    (fun (name, want) ->
      let have = List.assoc name got in
      if Float.abs (have -. want) <= 1e-9 *. Float.max 1.0 (Float.abs want)
      then None
      else Some (Printf.sprintf "%s: expected %g, model has %g" name want have))
    expected
