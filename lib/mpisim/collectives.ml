open Minic

let int_op = function
  | Mpi_iface.Rsum -> ( + )
  | Mpi_iface.Rprod -> ( * )
  | Mpi_iface.Rmax -> max
  | Mpi_iface.Rmin -> min

let float_op = function
  | Mpi_iface.Rsum -> ( +. )
  | Mpi_iface.Rprod -> ( *. )
  | Mpi_iface.Rmax -> Float.max
  | Mpi_iface.Rmin -> Float.min

(* Whether [v] combines with [first]: the same type, and for arrays the
   same length. *)
let same_shape first v =
  match (first, v) with
  | Value.Vint _, Value.Vint _ | Value.Vfloat _, Value.Vfloat _ -> true
  | Value.Varr_int a, Value.Varr_int b -> Array.length a = Array.length b
  | Value.Varr_float a, Value.Varr_float b -> Array.length a = Array.length b
  | (Value.Vint _ | Value.Vfloat _ | Value.Varr_int _ | Value.Varr_float _), _ -> false

let reduce op payloads =
  let n = Array.length payloads in
  if n = 0 then Error "reduce with no participants"
  else
    let first = payloads.(0) in
    let rec mismatch i =
      if i = n then -1 else if same_shape first payloads.(i) then mismatch (i + 1) else i
    in
    match mismatch 1 with
    | i when i >= 0 ->
      Error
        (Printf.sprintf "reduce over mismatched payloads (%s vs %s)" (Value.type_name first)
           (Value.type_name payloads.(i)))
    | _ -> (
      let ints i = match payloads.(i) with Value.Varr_int b -> b | _ -> assert false in
      let floats i = match payloads.(i) with Value.Varr_float b -> b | _ -> assert false in
      match first with
      | Value.Vint a ->
        let f = int_op op and acc = ref a in
        for i = 1 to n - 1 do
          match payloads.(i) with Value.Vint b -> acc := f !acc b | _ -> assert false
        done;
        Ok (Value.Vint !acc)
      | Value.Vfloat a ->
        let f = float_op op and acc = ref a in
        for i = 1 to n - 1 do
          match payloads.(i) with Value.Vfloat b -> acc := f !acc b | _ -> assert false
        done;
        Ok (Value.Vfloat !acc)
      | Value.Varr_int a ->
        let f = int_op op and acc = Array.copy a in
        for i = 1 to n - 1 do
          let b = ints i in
          for j = 0 to Array.length acc - 1 do
            acc.(j) <- f acc.(j) b.(j)
          done
        done;
        Ok (Value.Varr_int acc)
      | Value.Varr_float a ->
        let f = float_op op and acc = Array.copy a in
        for i = 1 to n - 1 do
          let b = floats i in
          for j = 0 to Array.length acc - 1 do
            acc.(j) <- f acc.(j) b.(j)
          done
        done;
        Ok (Value.Varr_float acc))

let gather payloads =
  let n = Array.length payloads in
  if Array.for_all (function Value.Vint _ -> true | _ -> false) payloads then
    Ok
      (Value.Varr_int
         (Array.init n (fun i -> match payloads.(i) with Value.Vint x -> x | _ -> assert false)))
  else if Array.for_all (function Value.Vfloat _ -> true | _ -> false) payloads then
    Ok
      (Value.Varr_float
         (Array.init n (fun i -> match payloads.(i) with Value.Vfloat x -> x | _ -> assert false)))
  else Error "gather expects scalar payloads of one type"

let scatter src n =
  match src with
  | Value.Varr_int a when Array.length a >= n -> Ok (Array.init n (fun k -> Value.Vint a.(k)))
  | Value.Varr_float a when Array.length a >= n -> Ok (Array.init n (fun k -> Value.Vfloat a.(k)))
  | Value.Varr_int a ->
    Error
      (Printf.sprintf "scatter source has %d elements for %d participants" (Array.length a) n)
  | Value.Varr_float a ->
    Error
      (Printf.sprintf "scatter source has %d elements for %d participants" (Array.length a) n)
  | Value.Vint _ | Value.Vfloat _ -> Error "scatter source must be an array"

let alltoall sends =
  let n = Array.length sends in
  let int_row = function Value.Varr_int a -> Array.length a >= n | _ -> false in
  let float_row = function Value.Varr_float a -> Array.length a >= n | _ -> false in
  if Array.for_all int_row sends then
    let row i = match sends.(i) with Value.Varr_int a -> a | _ -> assert false in
    Ok (Array.init n (fun j -> Value.Varr_int (Array.init n (fun i -> (row i).(j)))))
  else if Array.for_all float_row sends then
    let row i = match sends.(i) with Value.Varr_float a -> a | _ -> assert false in
    Ok (Array.init n (fun j -> Value.Varr_float (Array.init n (fun i -> (row i).(j)))))
  else Error "alltoall expects one array of length >= nprocs per sender"
