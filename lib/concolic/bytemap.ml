(* Growable byte maps indexed by small non-negative ids (branch ids,
   conditional ids): the flat per-step state of {!Coverage} and
   {!Pathlog}. *)

let ensure map i =
  let len = Bytes.length map in
  if i < len then map
  else begin
    let n = ref (max 1 len) in
    while !n <= i do
      n := 2 * !n
    done;
    let grown = Bytes.make !n '\000' in
    Bytes.blit map 0 grown 0 len;
    grown
  end
