(* Unheld slots store [unset]; no value a table holds is [min_int]
   (frontiers, counts and times are far from it). *)
let unset = min_int

type t = { default : int -> int; mutable vals : int array }

let create ~default =
  let vals = Array.make 4 unset in
  vals.(0) <- default 0;
  { default; vals }

let[@inline] get t log =
  let vals = t.vals in
  if log < Array.length vals then begin
    let v = vals.(log) in
    if v = unset then t.default log else v
  end
  else t.default log

let set t log v =
  let vals = t.vals in
  let n = Array.length vals in
  if log < n then vals.(log) <- v
  else begin
    if log >= Logid.max_logs then invalid_arg "Log_table.set: bad log id";
    let len = min Logid.max_logs (max (2 * n) (log + 1)) in
    let grown = Array.make len unset in
    Array.blit vals 0 grown 0 n;
    grown.(log) <- v;
    t.vals <- grown
  end

let add t log d =
  let vals = t.vals in
  if log < Array.length vals && vals.(log) <> unset then
    vals.(log) <- vals.(log) + d
  else set t log (get t log + d)

(* An unheld slot holds [unset], below every value, so a log not held
   yet always takes the merge. *)
let merge t log v =
  if log < Array.length t.vals && v <= t.vals.(log) then false
  else begin
    set t log v;
    true
  end

(* A loop, not [Array.fill]: the orderer resets its cursors on every
   idle pass, and the table is short. *)
let reset t =
  let vals = t.vals in
  for log = 1 to Array.length vals - 1 do
    vals.(log) <- unset
  done;
  vals.(0) <- t.default 0

let fold f t init =
  let vals = t.vals in
  let acc = ref init in
  for log = 0 to Array.length vals - 1 do
    let v = vals.(log) in
    if v <> unset then acc := f log v !acc
  done;
  !acc

let to_list t =
  let vals = t.vals in
  let acc = ref [] in
  for log = Array.length vals - 1 downto 0 do
    let v = vals.(log) in
    if v <> unset then acc := v :: !acc
  done;
  !acc

let rec set_packed t = function
  | [] -> ()
  | g :: rest ->
    set t (Logid.log_of g) g;
    set_packed t rest
