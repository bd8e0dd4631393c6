module Sset = Set.Make (String)

(* Branch coverage as a flat byte map indexed by branch id: [hit.[b]] is
   '\001' iff branch [b] is covered, and [count] is the number of such
   bytes. Branch ids are dense small integers (2 per conditional site),
   so recording a branch — the per-step cost paid by every rank — is one
   bounds check, one load and one store. The map grows by doubling when
   an id lands beyond it. *)
type t = {
  mutable hit : Bytes.t;
  mutable count : int;
  mutable funcs : Sset.t;
}

let create () = { hit = Bytes.make 256 '\000'; count = 0; funcs = Sset.empty }

let add_branch t b =
  if b >= Bytes.length t.hit then t.hit <- Bytemap.ensure t.hit b;
  if Bytes.get t.hit b = '\000' then begin
    Bytes.set t.hit b '\001';
    t.count <- t.count + 1
  end

let add_func t fn = t.funcs <- Sset.add fn t.funcs
let mem_branch t b = b >= 0 && b < Bytes.length t.hit && Bytes.get t.hit b <> '\000'
let covered_branches t = t.count

(* Walk the map downwards so the list comes out in increasing id order. *)
let branch_list t =
  let acc = ref [] in
  for b = Bytes.length t.hit - 1 downto 0 do
    if Bytes.get t.hit b <> '\000' then acc := b :: !acc
  done;
  !acc

let encountered t fn = Sset.mem fn t.funcs
let encountered_functions t = Sset.elements t.funcs

(* Per run, every rank's map is absorbed into the run's coverage, and a
   rank's functions are usually ones already there: no union then. *)
let absorb ~into t =
  let hit = t.hit in
  for b = 0 to Bytes.length hit - 1 do
    if Bytes.unsafe_get hit b <> '\000' then add_branch into b
  done;
  if not (Sset.subset t.funcs into.funcs) then
    into.funcs <- Sset.union into.funcs t.funcs

let copy t = { hit = Bytes.copy t.hit; count = t.count; funcs = t.funcs }

let report t =
  (* Canonical, timing-free rendering: branch ids print in increasing
     order and function names sorted, so equal coverage yields
     byte-equal text. *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "branches %d:" t.count);
  List.iter (fun b -> Buffer.add_string buf (Printf.sprintf " %d" b)) (branch_list t);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "functions %d:" (Sset.cardinal t.funcs));
  Sset.iter (fun fn -> Buffer.add_char buf ' '; Buffer.add_string buf fn) t.funcs;
  Buffer.add_char buf '\n';
  Buffer.contents buf
