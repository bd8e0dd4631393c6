type t = {
  nprocs : int;
  comms : (int, int array) Hashtbl.t;  (* handle -> members in local order *)
  mutable next_handle : int;
}

let create ~nprocs =
  if nprocs < 1 then invalid_arg "Rankmap.create: nprocs < 1";
  let comms = Hashtbl.create 8 in
  Hashtbl.replace comms Minic.Mpi_iface.world (Array.init nprocs (fun g -> g));
  { nprocs; comms; next_handle = Minic.Mpi_iface.world + 1 }

let world_size t = t.nprocs
let members t ~comm = Hashtbl.find_opt t.comms comm
let size t ~comm = Option.map Array.length (members t ~comm)

let index_of (arr : int array) (x : int) =
  let n = Array.length arr in
  let rec go k = if k >= n then None else if arr.(k) = x then Some k else go (k + 1) in
  go 0

let local_rank t ~comm ~global =
  Option.bind (members t ~comm) (fun ms -> index_of ms global)

let global_of_local t ~comm ~local =
  Option.bind (members t ~comm) (fun ms ->
      if local >= 0 && local < Array.length ms then Some ms.(local) else None)

let split t ~parent decisions =
  let parent_members =
    match members t ~comm:parent with
    | Some ms -> ms
    | None -> invalid_arg "Rankmap.split: unknown parent communicator"
  in
  let parent_local g = Option.value (index_of parent_members g) ~default:max_int in
  let by_color = Hashtbl.create 8 in
  List.iter
    (fun (g, color, key) ->
      if color >= 0 then
        Hashtbl.replace by_color color ((g, key) :: Option.value (Hashtbl.find_opt by_color color) ~default:[]))
    decisions;
  let colors = Hashtbl.fold (fun c _ acc -> c :: acc) by_color [] |> List.sort Int.compare in
  let handle_of_global = Hashtbl.create 8 in
  List.iter
    (fun color ->
      let group = Hashtbl.find by_color color in
      let sorted =
        List.sort
          (fun (g1, k1) (g2, k2) ->
            match Int.compare k1 k2 with
            | 0 -> Int.compare (parent_local g1) (parent_local g2)
            | c -> c)
          group
      in
      let ms = Array.of_list (List.map fst sorted) in
      let handle = t.next_handle in
      t.next_handle <- handle + 1;
      Hashtbl.replace t.comms handle ms;
      Array.iter (fun g -> Hashtbl.replace handle_of_global g handle) ms)
    colors;
  List.map
    (fun (g, color, _) ->
      if color < 0 then (g, -1)
      else (g, Option.value (Hashtbl.find_opt handle_of_global g) ~default:(-1)))
    decisions

let comms_of t ~global =
  Hashtbl.fold
    (fun handle ms acc ->
      match index_of ms global with Some l -> (handle, l) :: acc | None -> acc)
    t.comms []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let mapping_table t ~global =
  List.filter_map
    (fun (handle, _) ->
      if handle = Minic.Mpi_iface.world then None
      else Option.map (fun ms -> (handle, Array.copy ms)) (members t ~comm:handle))
    (comms_of t ~global)
