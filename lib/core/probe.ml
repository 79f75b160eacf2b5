(* Lightweight observation hooks for the checker (lib/check).

   Subscribers are domain-local so parallel seed sweeps (one engine per
   domain) never share monitor state. With no subscriber registered the
   per-event cost is one DLS load and a list match — call sites guard the
   payload allocation with [if Probe.active () then ...]. *)

type event =
  | Append_invoked of { rid : Types.Rid.t }
  | Append_acked of { rid : Types.Rid.t }
  | View_installed of { replica : int; view : int }
  | Stable_advanced of { gp : int }
  | Shard_stored of { shard : int; pos : int; rid : Types.Rid.t }
  | Shard_nooped of { shard : int; pos : int; rid : Types.Rid.t }
  | Shard_truncated of { shard : int; from : int }
  | Read_served of { shard : int; pos : int; rid : Types.Rid.t }
  | Crashed of { node : int }
  | Sub_registered of { name : string; from : int }
  | Sub_delivered of { name : string; pos : int; rid : Types.Rid.t }
  | Gray_fault of { kind : string; until : int }
  | Outlier_removed of { node : int }
  | Ingress_shed of { replica : int; log : int }

type handler = event -> unit

let dls : handler list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let active () = !(Domain.DLS.get dls) <> []

let emit ev = List.iter (fun h -> h ev) !(Domain.DLS.get dls)

let subscribe h =
  let subs = Domain.DLS.get dls in
  subs := h :: !subs

let reset () = Domain.DLS.get dls := []
