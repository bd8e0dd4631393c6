type rel = Eq | Ne | Lt | Le | Gt | Ge

type t = { exp : Linexp.t; rel : rel }

let make exp rel = { exp; rel }
let cmp a rel b = { exp = Linexp.sub a b; rel }

let negate c =
  let rel =
    match c.rel with
    | Eq -> Ne
    | Ne -> Eq
    | Lt -> Ge
    | Le -> Gt
    | Gt -> Le
    | Ge -> Lt
  in
  { c with rel }

let rel_holds rel v =
  match rel with
  | Eq -> v = 0
  | Ne -> v <> 0
  | Lt -> v < 0
  | Le -> v <= 0
  | Gt -> v > 0
  | Ge -> v >= 0

let holds lookup c = rel_holds c.rel (Linexp.eval lookup c.exp)
let vars c = Linexp.vars c.exp

let trivial c =
  match Linexp.is_const c.exp with
  | Some k -> Some (rel_holds c.rel k)
  | None -> None

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* floor division with positive divisor *)
let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)

let normalize c =
  match trivial c with
  | Some true -> `True
  | Some false -> `False
  | None ->
    let terms = Linexp.terms c.exp in
    let k = Linexp.constant c.exp in
    let g = List.fold_left (fun acc (coeff, _) -> gcd acc coeff) 0 terms in
    if g <= 1 then `Constr c
    else begin
      let divided = List.map (fun (coeff, var) -> (coeff / g, var)) terms in
      let exact = k mod g = 0 in
      match c.rel with
      | Eq ->
        (* sum(g*ci'*xi) + k = 0 needs g | k *)
        if exact then `Constr { exp = Linexp.of_terms divided (k / g); rel = Eq }
        else `False
      | Ne ->
        if exact then `Constr { exp = Linexp.of_terms divided (k / g); rel = Ne }
        else `True
      | Le ->
        (* g*S + k <= 0  <=>  S <= floor(-k / g)  <=>  S + ceil(k/g) <= 0 *)
        `Constr { exp = Linexp.of_terms divided (-fdiv (-k) g); rel = Le }
      | Lt ->
        (* g*S + k < 0  <=>  g*S <= -k - 1  <=>  S <= floor((-k - 1) / g) *)
        `Constr { exp = Linexp.of_terms divided (-fdiv (-k - 1) g); rel = Le }
      | Ge ->
        (* g*S + k >= 0  <=>  S >= ceil(-k / g)  <=>  S - ceil(-k/g) >= 0 *)
        `Constr { exp = Linexp.of_terms divided (fdiv k g); rel = Ge }
      | Gt ->
        (* g*S + k > 0  <=>  g*S >= 1 - k  <=>  S >= ceil((1 - k) / g) *)
        `Constr { exp = Linexp.of_terms divided (fdiv (k - 1) g); rel = Ge }
    end

let rel_equal a b =
  match (a, b) with
  | Eq, Eq | Ne, Ne | Lt, Lt | Le, Le | Gt, Gt | Ge, Ge -> true
  | (Eq | Ne | Lt | Le | Gt | Ge), _ -> false

let rel_rank = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5
let equal a b = rel_equal a.rel b.rel && Linexp.equal a.exp b.exp

let compare a b =
  let c = Int.compare (rel_rank a.rel) (rel_rank b.rel) in
  if c <> 0 then c else Linexp.compare a.exp b.exp

(* The fields in the order [compare] reads them: the relation, the
   constant, then the bindings in increasing variable order, each
   variable before its coefficient. [Varid.Map.compare] puts a shorter
   map first when one is a prefix of the other, as [compare_flat]
   does. *)
let flat c =
  let n = Linexp.fold_terms (fun n _ _ -> n + 1) c.exp 0 in
  let a = Array.make ((2 * n) + 2) (rel_rank c.rel) in
  a.(1) <- Linexp.constant c.exp;
  let fill i coeff v =
    a.(i) <- v;
    a.(i + 1) <- coeff;
    i + 2
  in
  ignore (Linexp.fold_terms fill c.exp 2 : int);
  a

let rel_of_rank = function
  | 0 -> Eq
  | 1 -> Ne
  | 2 -> Lt
  | 3 -> Le
  | 4 -> Gt
  | 5 -> Ge
  | r -> invalid_arg (Printf.sprintf "Constr.of_flat: relation rank %d" r)

let of_flat a =
  let rec bindings i acc =
    if i < 2 then acc else bindings (i - 2) ((a.(i), a.(i + 1)) :: acc)
  in
  { exp = Linexp.of_bindings (bindings (Array.length a - 2) []) a.(1); rel = rel_of_rank a.(0) }

let compare_flat (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let n = if la < lb then la else lb in
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  if !i < n then if a.(!i) < b.(!i) then -1 else 1 else Int.compare la lb

let rel_to_string = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp ppf c =
  Format.fprintf ppf "%a %s 0" Linexp.pp c.exp (rel_to_string c.rel)

let dependency_closure ~seed cs =
  (* Fixpoint: repeatedly absorb constraints that intersect the var set. *)
  let rec grow vars included pending =
    let hit, miss =
      List.partition (fun c -> not (Varid.Set.disjoint (Linexp.vars c.exp) vars)) pending
    in
    match hit with
    | [] -> (List.rev included, vars)
    | _ :: _ ->
      let vars =
        List.fold_left (fun acc c -> Varid.Set.union acc (Linexp.vars c.exp)) vars hit
      in
      grow vars (List.rev_append hit included) miss
  in
  grow seed [] cs
