let coverage_curve ?(points = 20) (r : Driver.result) =
  let stats = Array.of_list r.Driver.stats in
  let n = Array.length stats in
  if n = 0 then []
  else begin
    let sample k =
      let idx = min (n - 1) (k * n / points) in
      let s = stats.(idx) in
      (s.Driver.iteration, s.Driver.covered_after)
    in
    let body = List.init points sample in
    let last = stats.(n - 1) in
    List.sort_uniq compare (body @ [ (last.Driver.iteration, last.Driver.covered_after) ])
  end

let stats_csv (r : Driver.result) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "iteration,nprocs,focus,cs_size,covered,reachable,faults,restarted,exec_s,solve_s\n";
  List.iter
    (fun (s : Driver.iter_stat) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%b,%.6f,%.6f\n" s.Driver.iteration
           s.Driver.nprocs s.Driver.focus s.Driver.constraint_set_size
           s.Driver.covered_after s.Driver.reachable_after s.Driver.faults_seen
           s.Driver.restarted s.Driver.exec_time s.Driver.solve_time))
    r.Driver.stats;
  Buffer.contents buf

let uncovered (info : Minic.Branchinfo.t) coverage =
  let acc = ref [] in
  for cond = info.Minic.Branchinfo.total_conditionals - 1 downto 0 do
    let func = info.Minic.Branchinfo.func_of_cond.(cond) in
    if Concolic.Coverage.encountered coverage func then
      List.iter
        (fun dir ->
          if
            not
              (Concolic.Coverage.mem_branch coverage
                 (Minic.Branchinfo.branch_of_cond cond dir))
          then acc := (cond, dir, func) :: !acc)
        [ false; true ]
  done;
  !acc

let annotate (info : Minic.Branchinfo.t) coverage =
  let text = Minic.Pretty.program_to_string info.Minic.Branchinfo.program in
  let buf = Buffer.create (String.length text + 1024) in
  let n = String.length text in
  let mark cond dir =
    if Concolic.Coverage.mem_branch coverage (Minic.Branchinfo.branch_of_cond cond dir)
    then "+"
    else "-"
  in
  let rec go k =
    if k >= n then ()
    else if k + 1 < n && text.[k] = '/' && text.[k + 1] = '*' then begin
      (* try to read a numeric marker "/*123*/" *)
      let j = ref (k + 2) in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      if !j > k + 2 && !j + 1 < n && text.[!j] = '*' && text.[!j + 1] = '/' then begin
        let cond = int_of_string (String.sub text (k + 2) (!j - k - 2)) in
        Buffer.add_string buf
          (Printf.sprintf "/*%d T%s F%s*/" cond (mark cond true) (mark cond false));
        go (!j + 2)
      end
      else begin
        Buffer.add_char buf text.[k];
        go (k + 1)
      end
    end
    else begin
      Buffer.add_char buf text.[k];
      go (k + 1)
    end
  in
  go 0;
  Buffer.contents buf

let bugs_csv (r : Driver.result) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "iteration,rank,nprocs,focus,kind,detail,inputs\n";
  List.iter
    (fun (b : Driver.bug) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%s,%S,%S\n" b.Driver.bug_iteration b.Driver.bug_rank
           b.Driver.bug_nprocs b.Driver.bug_focus
           (Minic.Fault.kind_name b.Driver.bug_fault)
           (Minic.Fault.to_string b.Driver.bug_fault)
           (String.concat " "
              (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) b.Driver.bug_inputs))))
    r.Driver.bugs;
  Buffer.contents buf
