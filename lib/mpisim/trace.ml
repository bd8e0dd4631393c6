type event =
  | Send of { from_rank : int; to_local : int; comm : int; tag : int }
  | Recv_matched of { rank : int; src_local : int; tag : int; comm : int }
  | Matched of { src : int; dst : int; comm : int; tag : int }
  | Collective of { comm : int; signature : string; ranks : int list }
  | Blocked of { rank : int; comm : int; kind : string; peer : int }
  | Finished of { rank : int; ok : bool }
  | Deadlock of { ranks : int list }
  | Witness of { rank : int; comm : int; kind : string; peer : int }
  | Schedule_choice of {
      rank : int;
      comm : int;
      tag : int;
      chosen : int;
      alts : int list;
      point : int;
    }

let discard (_ : event) = ()

let pp_event ppf = function
  | Send { from_rank; to_local; comm; tag } ->
    Format.fprintf ppf "send   rank %d -> local %d (comm %d, tag %d)" from_rank to_local
      comm tag
  | Recv_matched { rank; src_local; tag; comm } ->
    Format.fprintf ppf "recv   rank %d <- local %d (comm %d, tag %d)" rank src_local comm
      tag
  | Matched { src; dst; comm; tag } ->
    Format.fprintf ppf "match  rank %d => rank %d (comm %d, tag %d)" src dst comm tag
  | Collective { comm; signature; ranks } ->
    Format.fprintf ppf "coll   %s on comm %d (%d participants)" signature comm
      (List.length ranks)
  | Blocked { rank; comm; kind; peer } ->
    if peer >= 0 then
      Format.fprintf ppf "block  rank %d in %s on rank %d (comm %d)" rank kind peer comm
    else Format.fprintf ppf "block  rank %d in %s (comm %d)" rank kind comm
  | Finished { rank; ok } ->
    Format.fprintf ppf "done   rank %d (%s)" rank (if ok then "ok" else "fault")
  | Deadlock { ranks } ->
    Format.fprintf ppf "DEADLOCK ranks [%s]"
      (String.concat "; " (List.map string_of_int ranks))
  | Witness { rank; comm; kind; peer } ->
    if peer >= 0 then
      Format.fprintf ppf "wait-for rank %d --%s--> rank %d (comm %d)" rank kind peer comm
    else Format.fprintf ppf "wait-for rank %d --%s--> ? (comm %d)" rank kind comm
  | Schedule_choice { rank; comm; tag; chosen; alts; point } ->
    Format.fprintf ppf "choice rank %d <- local %d of {%s} (comm %d, tag %d, point %d)"
      rank chosen
      (String.concat "," (List.map string_of_int alts))
      comm tag point

type t = { mutable events_rev : event list; mutable n : int }

let create () = { events_rev = []; n = 0 }

let collector t ev =
  t.events_rev <- ev :: t.events_rev;
  t.n <- t.n + 1

let events t = List.rev t.events_rev
let length t = t.n

let kind_name = function
  | Send _ -> "send"
  | Recv_matched _ -> "recv"
  | Matched _ -> "match"
  | Collective _ -> "collective"
  | Blocked _ -> "blocked"
  | Finished _ -> "finished"
  | Deadlock _ -> "deadlock"
  | Witness _ -> "witness"
  | Schedule_choice _ -> "choice"

let summary t =
  let table = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let k = kind_name ev in
      Hashtbl.replace table k (1 + Option.value (Hashtbl.find_opt table k) ~default:0))
    (events t);
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let timeline ?(limit = 200) t =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun k ev ->
      if k < limit then
        Buffer.add_string buf (Format.asprintf "%4d  %a\n" k pp_event ev))
    (events t);
  if length t > limit then
    Buffer.add_string buf
      (Printf.sprintf "... (%d of %d events elided by limit %d)\n" (length t - limit)
         (length t) limit);
  Buffer.contents buf
