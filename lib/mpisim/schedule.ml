(* Schedule prescriptions for wildcard receives.

   A run of a program with MPI_ANY_SOURCE receives is not a single
   behaviour but a tree of them: each time a wildcard receive could
   match messages from more than one sender, the scheduler must pick
   one. A [prescription] pins those picks — entry k names the local
   source rank to deliver at the k-th wildcard match point — so a
   schedule is replayable exactly like a test case, and a bug becomes
   an (input, schedule) pair.

   The enumeration below is the schedule-space analogue of constraint
   negation: from one executed run it derives every sibling schedule
   obtained by flipping a single recorded choice, restricted to choice
   points at or beyond the run's prescribed prefix (points inside the
   prefix were already forked when an ancestor run was enumerated).
   Partial-order reduction falls out of two structural facts rather
   than an explicit independence check:

   - choice points only exist where a wildcard receive has more than
     one eligible sender, so independent (single-candidate) matches
     never fork;
   - the scheduler serves choices in a canonical order (lowest blocked
     receiver first, one per quiescent round), so interleavings of
     *independent* deliveries collapse to one representative and only
     genuinely conflicting matches multiply. *)

type prescription = int list

(* One recorded wildcard match decision. [ch_alts] is the sorted set of
   local source ranks that were eligible when the choice was served;
   [ch_chosen] is the one delivered (always a member of [ch_alts]). *)
type choice = {
  ch_rank : int;  (* global receiving rank *)
  ch_comm : int;
  ch_tag : int;  (* tag of the delivered message *)
  ch_chosen : int;  (* local source rank delivered *)
  ch_alts : int list;
}

let empty : prescription = []

let to_string = function
  | [] -> "-"
  | p -> String.concat "." (List.map string_of_int p)

let of_string = function
  | "-" | "" -> []
  | s -> List.map int_of_string (String.split_on_char '.' s)

(* An alternative prescription derived from a recorded run. *)
type alt = {
  alt_prescription : prescription;
  alt_point : int;  (* index of the flipped choice point *)
  alt_source : int;  (* the source delivered instead *)
}

let alternatives ~depth ~prefix_len (choices : choice list) : alt list =
  let arr = Array.of_list choices in
  let alts = ref [] in
  let bound = min (Array.length arr) depth in
  for point = bound - 1 downto max 0 prefix_len do
    let c = arr.(point) in
    let keep = List.init point (fun k -> arr.(k).ch_chosen) in
    List.iter
      (fun src ->
        if src <> c.ch_chosen then
          alts :=
            { alt_prescription = keep @ [ src ]; alt_point = point; alt_source = src }
            :: !alts)
      (List.rev c.ch_alts)
  done;
  !alts

(* Enumeration accounting for one run, for the schedule_enum event:
   how many choice points were examined, how many forks emitted, and
   how many alternatives the depth budget or prefix pruned. Takes the
   run's [alternatives] rather than building them again. *)
type stats = { st_points : int; st_emitted : int; st_pruned : int }

let stats (choices : choice list) (alts : alt list) =
  let total_alts =
    List.fold_left (fun acc c -> acc + List.length c.ch_alts - 1) 0 choices
  in
  let emitted = List.length alts in
  { st_points = List.length choices; st_emitted = emitted; st_pruned = total_alts - emitted }
