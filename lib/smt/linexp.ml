type t = { coeffs : int Varid.Map.t; k : int }

let normalize coeffs = Varid.Map.filter (fun _ c -> c <> 0) coeffs
let const k = { coeffs = Varid.Map.empty; k }
let var v = { coeffs = Varid.Map.singleton v 1; k = 0 }

let of_terms terms k =
  let add_term acc (c, v) =
    Varid.Map.update v
      (function None -> Some c | Some c' -> Some (c + c'))
      acc
  in
  { coeffs = normalize (List.fold_left add_term Varid.Map.empty terms); k }

let merge f a b =
  let coeffs =
    Varid.Map.merge
      (fun _ ca cb -> Some (f (Option.value ca ~default:0) (Option.value cb ~default:0)))
      a.coeffs b.coeffs
  in
  { coeffs = normalize coeffs; k = f a.k b.k }

let neg a = { coeffs = Varid.Map.map (fun c -> -c) a.coeffs; k = -a.k }

(* [a] holds no zero coefficient unless [scale] wrapped a product to 0. *)
let normalized a = Varid.Map.for_all (fun _ c -> c <> 0) a.coeffs

(* With no zero coefficient on either side, [merge ( + )] keeps every
   one-sided term as it is, so one [union] that sums the colliding
   coefficients and drops the sums that cancel gives the same terms. *)
let sum_coeffs a b =
  Varid.Map.union (fun _ ca cb -> match ca + cb with 0 -> None | c -> Some c) a b

let add a b =
  if normalized a && normalized b then { coeffs = sum_coeffs a.coeffs b.coeffs; k = a.k + b.k }
  else merge ( + ) a b

let sub a b =
  if normalized a && normalized b then
    { coeffs = sum_coeffs a.coeffs (Varid.Map.map (fun c -> -c) b.coeffs); k = a.k - b.k }
  else merge ( - ) a b

let scale s a =
  if s = 0 then const 0
  else { coeffs = Varid.Map.map (fun c -> s * c) a.coeffs; k = s * a.k }

let add_const k a = { a with k = a.k + k }

let of_bindings bindings k =
  { coeffs = List.fold_left (fun m (v, c) -> Varid.Map.add v c m) Varid.Map.empty bindings; k }

(* [add]/[sub] against a constant only shift [k] and drop zero
   coefficients, so for a [normalized] [a] the shortcut is [equal] (and
   hashes the same) to the merge it replaces. *)
let plus_const a k = if normalized a then add_const k a else add a (const k)
let const_minus k a = if normalized a then add_const k (neg a) else sub (const k) a
let is_const a = if Varid.Map.is_empty a.coeffs then Some a.k else None
let coeff v a = match Varid.Map.find_opt v a.coeffs with Some c -> c | None -> 0
let constant a = a.k
let terms a = Varid.Map.fold (fun v c acc -> (c, v) :: acc) a.coeffs [] |> List.rev
let fold_terms f a init = Varid.Map.fold (fun v c acc -> f acc c v) a.coeffs init
let vars a = Varid.Map.fold (fun v _ acc -> Varid.Set.add v acc) a.coeffs Varid.Set.empty
let mem v a = Varid.Map.mem v a.coeffs

let eval lookup a =
  Varid.Map.fold (fun v c acc -> acc + (c * lookup v)) a.coeffs a.k

(* Structural hash: fold the (sorted) terms with a multiplicative mix.
   Must agree with [equal]. *)
let hash a =
  let mix acc x = (acc * 0x01000193) lxor (x land max_int) in
  Varid.Map.fold (fun v c acc -> mix (mix acc v) c) a.coeffs (mix 0x811c9dc5 a.k)
  land max_int

let equal a b = a.k = b.k && Varid.Map.equal Int.equal a.coeffs b.coeffs

let compare a b =
  let c = Int.compare a.k b.k in
  if c <> 0 then c else Varid.Map.compare Int.compare a.coeffs b.coeffs

let pp ppf a =
  let pp_term ppf (c, v) =
    if c = 1 then Varid.pp ppf v
    else if c = -1 then Format.fprintf ppf "-%a" Varid.pp v
    else Format.fprintf ppf "%d*%a" c Varid.pp v
  in
  match terms a with
  | [] -> Format.fprintf ppf "%d" a.k
  | t :: ts ->
    pp_term ppf t;
    List.iter (fun (c, v) -> Format.fprintf ppf " + %a" pp_term (c, v)) ts;
    if a.k <> 0 then Format.fprintf ppf " + %d" a.k
