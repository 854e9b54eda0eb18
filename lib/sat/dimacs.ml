type cnf = {
  nvars : int;
  clauses : int list list;
}

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let nvars = ref (-1) in
  let nclauses_declared = ref 0 in
  let clauses = ref [] in
  let nclauses = ref 0 in
  let pending = ref [] in
  let pending_line = ref 0 in
  let lineno = ref 0 in
  let fail msg = failwith (Printf.sprintf "Dimacs: line %d: %s" !lineno msg) in
  let tokens line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  List.iter
    (fun line ->
      incr lineno;
      match tokens line with
      | [] -> ()
      | "c" :: _ -> ()
      | t :: _ when String.length t > 0 && t.[0] = 'c' -> ()
      | "p" :: rest ->
        if !nvars >= 0 then fail "duplicate problem line";
        (match rest with
         | [ "cnf"; v; c ] ->
           (match int_of_string_opt v, int_of_string_opt c with
            | Some v, Some c when v >= 0 && c >= 0 ->
              nvars := v;
              nclauses_declared := c
            | _ -> fail "malformed problem line")
         | _ -> fail "malformed problem line")
      | toks ->
        if !nvars < 0 then fail "clause before problem line";
        List.iter
          (fun t ->
            match int_of_string_opt t with
            | None -> fail (Printf.sprintf "bad literal %S" t)
            | Some 0 ->
              clauses := List.rev !pending :: !clauses;
              incr nclauses;
              pending := []
            | Some l ->
              if abs l > !nvars then fail (Printf.sprintf "literal %d out of range" l);
              pending := l :: !pending;
              pending_line := !lineno)
          toks)
    lines;
  if !pending <> [] then begin
    lineno := !pending_line;
    fail "final clause not terminated by 0"
  end;
  if !nvars < 0 then failwith "Dimacs: missing problem line";
  if !nclauses <> !nclauses_declared then
    failwith
      (Printf.sprintf "Dimacs: declared %d clauses but found %d"
         !nclauses_declared !nclauses);
  { nvars = !nvars; clauses = List.rev !clauses }

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse_string text

let to_string cnf =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "p cnf %d %d\n" cnf.nvars (List.length cnf.clauses));
  List.iter
    (fun clause ->
      List.iter (fun l -> Buffer.add_string b (string_of_int l); Buffer.add_char b ' ') clause;
      Buffer.add_string b "0\n")
    cnf.clauses;
  Buffer.contents b

let load_into solver cnf =
  if Solver.nb_vars solver <> 0 then
    invalid_arg "Dimacs.load_into: solver already has variables";
  for _ = 1 to cnf.nvars do
    ignore (Solver.new_var solver)
  done;
  List.iter (Solver.add_clause solver) cnf.clauses

let solve cnf =
  let s = Solver.create () in
  load_into s cnf;
  let r = Solver.solve s in
  let model = Array.make (cnf.nvars + 1) false in
  (match r with
   | Solver.Sat ->
     for v = 1 to cnf.nvars do
       model.(v) <- Solver.value s v
     done
   | Solver.Unsat -> ());
  (r, model)
