(* The code base's JSON: a minimal dependency-free parser and printer,
   then the reading side of the Chrome trace_event format (a schema check
   and the renderer behind `svc trace summary`).  The parser accepts
   exactly the JSON grammar (objects, arrays, strings with escapes,
   numbers, true/false/null); it exists so the CLI can validate and
   summarize trace files without pulling in a JSON library. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Malformed of string

let parse (s : string) : (json, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Malformed (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit in \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | None -> fail "unterminated escape"
         | Some c ->
           advance ();
           (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let code =
                (hex_digit s.[!pos] lsl 12)
                lor (hex_digit s.[!pos + 1] lsl 8)
                lor (hex_digit s.[!pos + 2] lsl 4)
                lor hex_digit s.[!pos + 3]
              in
              pos := !pos + 4;
              (* UTF-8 encode the code point (BMP only — enough for traces
                 we emit, which escape only control characters) *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
            | _ -> fail "unknown escape"));
        go ()
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let parse_literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> parse_literal "true" (Bool true)
    | Some 'f' -> parse_literal "false" (Bool false)
    | Some 'n' -> parse_literal "null" Null
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    Ok v
  with Malformed msg -> Error msg

(* ---------------- writing ---------------- *)

(* The one JSON string escaper of the code base: the two-character forms
   for the common controls, [\u00XX] for the rest. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let quote s = "\"" ^ escape s ^ "\""

let rec to_string (j : json) =
  match j with
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%g" f
  | Str s -> quote s
  | Arr xs -> "[" ^ String.concat "," (List.map to_string xs) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> quote k ^ ":" ^ to_string v) kvs)
    ^ "}"

(* ---------------- trace-event schema ---------------- *)

type tev = {
  t_name : string;
  t_ph : string;
  t_tid : int;
  t_ts : float;  (* microseconds; 0 for metadata *)
  t_dur : float;  (* microseconds; 0 unless ph = X *)
  t_args : (string * json) list;
}

let known_phases = [ "X"; "B"; "E"; "M"; "C"; "I"; "i"; "b"; "e" ]

let field name fields = List.assoc_opt name fields

let require_num what name fields =
  match field name fields with
  | Some (Num f) -> f
  | Some _ -> raise (Malformed (Printf.sprintf "%s: %S is not a number" what name))
  | None -> raise (Malformed (Printf.sprintf "%s: missing %S" what name))

let require_str what name fields =
  match field name fields with
  | Some (Str s) -> s
  | Some _ -> raise (Malformed (Printf.sprintf "%s: %S is not a string" what name))
  | None -> raise (Malformed (Printf.sprintf "%s: missing %S" what name))

(* Validate one trace event object against the Chrome trace_event schema
   subset we emit (and Perfetto accepts). *)
let validate_event i j =
  let what = Printf.sprintf "event #%d" i in
  match j with
  | Obj fields ->
    let ph = require_str what "ph" fields in
    if not (List.mem ph known_phases) then
      raise (Malformed (Printf.sprintf "%s: unknown phase %S" what ph));
    let name = require_str what "name" fields in
    ignore (require_num what "pid" fields);
    let tid = int_of_float (require_num what "tid" fields) in
    let ts = if ph = "M" then 0. else require_num what "ts" fields in
    let dur = if ph = "X" then require_num what "dur" fields else 0. in
    if dur < 0. then raise (Malformed (Printf.sprintf "%s: negative duration" what));
    let args =
      match field "args" fields with
      | Some (Obj a) -> a
      | Some _ -> raise (Malformed (Printf.sprintf "%s: \"args\" is not an object" what))
      | None -> []
    in
    { t_name = name; t_ph = ph; t_tid = tid; t_ts = ts; t_dur = dur; t_args = args }
  | _ -> raise (Malformed (Printf.sprintf "%s: not an object" what))

let validate (j : json) : (tev list, string) result =
  match j with
  | Obj fields ->
    (match field "traceEvents" fields with
     | Some (Arr evs) ->
       (try Ok (List.mapi validate_event evs) with Malformed msg -> Error msg)
     | Some _ -> Error "\"traceEvents\" is not an array"
     | None -> Error "missing \"traceEvents\" array")
  | _ -> Error "top level is not an object"

(* ---------------- summary rendering ---------------- *)

let summarize ~name text =
  match parse text with
  | Error msg -> Error (Printf.sprintf "malformed JSON: %s" msg)
  | Ok j ->
    (match validate j with
     | Error msg -> Error (Printf.sprintf "invalid trace: %s" msg)
     | Ok evs ->
       let buf = Buffer.create 512 in
       let spans = List.filter (fun e -> e.t_ph = "X") evs in
       let metas = List.filter (fun e -> e.t_ph = "M") evs in
       let counters = List.filter (fun e -> e.t_ph = "C") evs in
       Buffer.add_string buf (Printf.sprintf "trace summary : %s\n" name);
       Buffer.add_string buf
         (Printf.sprintf "events        : %d (%d spans, %d metadata, %d counter samples)\n"
            (List.length evs) (List.length spans) (List.length metas)
            (List.length counters));
       (* track table: names from thread_name metadata, span counts per tid *)
       let track_name tid =
         List.fold_left
           (fun acc e ->
              if e.t_ph = "M" && e.t_name = "thread_name" && e.t_tid = tid then
                match field "name" e.t_args with Some (Str s) -> Some s | _ -> acc
              else acc)
           None evs
       in
       let tids =
         List.sort_uniq compare (List.map (fun e -> e.t_tid) (spans @ metas))
       in
       Buffer.add_string buf (Printf.sprintf "tracks        : %d\n" (List.length tids));
       List.iter
         (fun tid ->
            let count =
              List.length (List.filter (fun e -> e.t_tid = tid) spans)
            in
            let label =
              match track_name tid with
              | Some n -> Printf.sprintf "track %d (%s)" tid n
              | None -> Printf.sprintf "track %d" tid
            in
            Buffer.add_string buf (Printf.sprintf "  %-26s: %d spans\n" label count))
         tids;
       (* span aggregation by name, sorted *)
       if spans <> [] then begin
         Buffer.add_string buf "spans by name:\n";
         let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
         List.iter
           (fun e ->
              let c, d =
                Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl e.t_name)
              in
              Hashtbl.replace tbl e.t_name (c + 1, d +. e.t_dur))
           spans;
         List.iter
           (fun name ->
              let c, d = Hashtbl.find tbl name in
              Buffer.add_string buf
                (Printf.sprintf "  %-40s %4dx  time  : %.2fms\n" name c (d /. 1000.)))
           (List.sort compare
              (Hashtbl.fold (fun name _ acc -> name :: acc) tbl []))
       end;
       if counters <> [] then begin
         Buffer.add_string buf "counters:\n";
         List.iter
           (fun e ->
              let v =
                match field "value" e.t_args with
                | Some (Num f) -> Printf.sprintf "%.0f" f
                | _ ->
                  (* a multi-valued sample: show its args verbatim *)
                  String.concat " "
                    (List.map
                       (fun (k, v) ->
                          match v with
                          | Num f -> Printf.sprintf "%s=%.0f" k f
                          | _ -> k)
                       e.t_args)
              in
              Buffer.add_string buf (Printf.sprintf "  %-40s %s\n" e.t_name v))
           counters
       end;
       Ok (Buffer.contents buf))
