type severity = Error | Warning | Hint

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let severity_rank = function Error -> 0 | Warning -> 1 | Hint -> 2

type span = { line : int; col : int; len : int }

let span_of_parse (d : Query_parse.diagnostic) =
  { line = 1; col = d.Query_parse.offset; len = d.Query_parse.length }

let span_of_line ?(col = 0) ?(len = 0) line = { line; col; len }

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

(* Structural proof that a regular expression denotes the empty
   language.  Eps, Sym and Star never do, so the proof only descends
   through Seq and Alt down to ∅ leaves. *)
type empty_proof =
  | Prim_empty                            (* the regex is ∅ itself *)
  | Seq_left of empty_proof               (* L·R with L empty *)
  | Seq_right of empty_proof              (* L·R with R empty *)
  | Alt_both of empty_proof * empty_proof (* L+R with both empty *)

type certificate =
  | Non_hierarchical of Hierarchical.violation
  | Hard_word of string list
    (* an accepted word of length ≥ 3 (Corollary 4.3 hard side) *)
  | Dead_language of Regex.t * empty_proof
  | Subsumed_atom of Atom.t * (string * Term.t) list
    (* the redundant atom and a homomorphism q → q∖atom fixing constants *)
  | Subsumed_disjunct of { kept : Cq.t; dropped : Cq.t; hom : (string * Term.t) list }
    (* hom kept → dropped witnesses dropped ⊨ kept, so dropped is redundant *)
  | Self_join_pair of Atom.t * Atom.t
  | Component_split of Atom.t list * Atom.t list
    (* a partition of the atoms sharing no term: a cartesian product *)
  | Arity_conflict of Fact.t * Fact.t
  | Part_overlap of Fact.t
    (* declared both endogenous and exogenous *)
  | Duplicate_fact of Fact.t * int * int
    (* same tagged fact on two source lines *)
  | Missing_relation of string * Atom.t option
    (* query relation absent from the database (atom when applicable) *)
  | Query_db_arity of { rel : string; query_arity : int; witness : Fact.t }
  | Blowup of { verdict : string; n_endo : int; plan_width : int option }
    (* not-known-tractable query over this many endogenous facts; the
       compilation planner's max induced width when a lineage plan was
       derivable (checked against an independent re-analysis) *)

type t = {
  code : string;
  severity : severity;
  span : span option;
  message : string;
  certificate : certificate option;
}

let make ?span ?certificate ~code ~severity message =
  { code; severity; span; message; certificate }

let error ?span ?certificate code message =
  make ?span ?certificate ~code ~severity:Error message

let warning ?span ?certificate code message =
  make ?span ?certificate ~code ~severity:Warning message

let hint ?span ?certificate code message =
  make ?span ?certificate ~code ~severity:Hint message

let compare a b =
  match Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 ->
    (match Stdlib.compare a.code b.code with
     | 0 ->
       (match Stdlib.compare a.span b.span with
        | 0 -> Stdlib.compare a.message b.message
        | c -> c)
     | c -> c)
  | c -> c

let sort ds = List.sort_uniq compare ds

let count severity ds = List.length (List.filter (fun d -> d.severity = severity) ds)

let max_severity ds =
  List.fold_left
    (fun acc d ->
       match acc with
       | None -> Some d.severity
       | Some s -> if severity_rank d.severity < severity_rank s then Some d.severity else acc)
    None ds

let gate ~strict ds =
  List.exists
    (fun d -> d.severity = Error || (strict && d.severity = Warning))
    ds

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)
(* ------------------------------------------------------------------ *)

let rec empty_proof_to_string = function
  | Prim_empty -> "∅"
  | Seq_left p -> "seq-left(" ^ empty_proof_to_string p ^ ")"
  | Seq_right p -> "seq-right(" ^ empty_proof_to_string p ^ ")"
  | Alt_both (p, q) ->
    "alt(" ^ empty_proof_to_string p ^ ", " ^ empty_proof_to_string q ^ ")"

let hom_to_string hom =
  String.concat ", "
    (List.map (fun (v, t) -> Printf.sprintf "?%s ↦ %s" v (Term.to_string t)) hom)

let atoms_to_string atoms = String.concat ", " (List.map Atom.to_string atoms)

let certificate_to_string = function
  | Non_hierarchical v -> Hierarchical.violation_to_string v
  | Hard_word w -> Printf.sprintf "accepted word of length %d: %s" (List.length w) (String.concat "·" w)
  | Dead_language (re, proof) ->
    Printf.sprintf "L(%s) = ∅ by %s" (Regex.to_string re) (empty_proof_to_string proof)
  | Subsumed_atom (a, hom) ->
    Printf.sprintf "%s is redundant: homomorphism [%s] maps the query into the rest"
      (Atom.to_string a) (hom_to_string hom)
  | Subsumed_disjunct { kept; dropped; hom } ->
    Printf.sprintf "disjunct %s implies disjunct %s via [%s]"
      (Cq.to_string dropped) (Cq.to_string kept) (hom_to_string hom)
  | Self_join_pair (a, b) ->
    Printf.sprintf "atoms %s and %s share relation %s" (Atom.to_string a) (Atom.to_string b)
      (Atom.rel a)
  | Component_split (c1, c2) ->
    Printf.sprintf "independent components {%s} × {%s}" (atoms_to_string c1) (atoms_to_string c2)
  | Arity_conflict (f1, f2) ->
    Printf.sprintf "%s vs %s" (Fact.to_string f1) (Fact.to_string f2)
  | Part_overlap f -> Fact.to_string f ^ " is both endogenous and exogenous"
  | Duplicate_fact (f, l1, l2) ->
    Printf.sprintf "%s on lines %d and %d" (Fact.to_string f) l1 l2
  | Missing_relation (r, Some a) ->
    Printf.sprintf "relation %s of atom %s" r (Atom.to_string a)
  | Missing_relation (r, None) -> Printf.sprintf "relation %s" r
  | Query_db_arity { rel; query_arity; witness } ->
    Printf.sprintf "%s used with arity %d, database has %s" rel query_arity
      (Fact.to_string witness)
  | Blowup { verdict; n_endo; plan_width } ->
    Printf.sprintf "verdict %s over %d endogenous facts%s" verdict n_endo
      (match plan_width with
       | Some w -> Printf.sprintf ", plan width %d" w
       | None -> "")

let to_string d =
  let loc =
    match d.span with
    | Some s -> Printf.sprintf " %d:%d" s.line s.col
    | None -> ""
  in
  Printf.sprintf "%s[%s]%s: %s%s"
    (severity_to_string d.severity) d.code loc d.message
    (match d.certificate with
     | Some c -> "\n    certificate: " ^ certificate_to_string c
     | None -> "")

let pp fmt d = Format.pp_print_string fmt (to_string d)

(* ------------------------------------------------------------------ *)
(* JSON rendering (hand-rolled; no external dependency)                *)
(* ------------------------------------------------------------------ *)

let jstr = Tracejson.quote
let jfield k v = jstr k ^ ":" ^ v
let jobj fields = "{" ^ String.concat "," fields ^ "}"
let jarr items = "[" ^ String.concat "," items ^ "]"

let hom_to_json hom =
  jobj (List.map (fun (v, t) -> jfield v (jstr (Term.to_string t))) hom)

let rec empty_proof_to_json = function
  | Prim_empty -> jobj [ jfield "rule" (jstr "empty") ]
  | Seq_left p -> jobj [ jfield "rule" (jstr "seq-left"); jfield "sub" (empty_proof_to_json p) ]
  | Seq_right p -> jobj [ jfield "rule" (jstr "seq-right"); jfield "sub" (empty_proof_to_json p) ]
  | Alt_both (p, q) ->
    jobj
      [ jfield "rule" (jstr "alt-both");
        jfield "left" (empty_proof_to_json p);
        jfield "right" (empty_proof_to_json q) ]

let certificate_to_json = function
  | Non_hierarchical v ->
    jobj
      [ jfield "kind" (jstr "non-hierarchical");
        jfield "var1" (jstr v.Hierarchical.var1);
        jfield "var2" (jstr v.Hierarchical.var2);
        jfield "atom_only1" (jstr (Atom.to_string v.Hierarchical.atom_only1));
        jfield "atom_both" (jstr (Atom.to_string v.Hierarchical.atom_both));
        jfield "atom_only2" (jstr (Atom.to_string v.Hierarchical.atom_only2)) ]
  | Hard_word w ->
    jobj [ jfield "kind" (jstr "hard-word"); jfield "word" (jarr (List.map jstr w)) ]
  | Dead_language (re, proof) ->
    jobj
      [ jfield "kind" (jstr "dead-language");
        jfield "regex" (jstr (Regex.to_string re));
        jfield "proof" (empty_proof_to_json proof) ]
  | Subsumed_atom (a, hom) ->
    jobj
      [ jfield "kind" (jstr "subsumed-atom");
        jfield "atom" (jstr (Atom.to_string a));
        jfield "hom" (hom_to_json hom) ]
  | Subsumed_disjunct { kept; dropped; hom } ->
    jobj
      [ jfield "kind" (jstr "subsumed-disjunct");
        jfield "kept" (jstr (Cq.to_string kept));
        jfield "dropped" (jstr (Cq.to_string dropped));
        jfield "hom" (hom_to_json hom) ]
  | Self_join_pair (a, b) ->
    jobj
      [ jfield "kind" (jstr "self-join");
        jfield "atom1" (jstr (Atom.to_string a));
        jfield "atom2" (jstr (Atom.to_string b)) ]
  | Component_split (c1, c2) ->
    jobj
      [ jfield "kind" (jstr "component-split");
        jfield "component1" (jarr (List.map (fun a -> jstr (Atom.to_string a)) c1));
        jfield "component2" (jarr (List.map (fun a -> jstr (Atom.to_string a)) c2)) ]
  | Arity_conflict (f1, f2) ->
    jobj
      [ jfield "kind" (jstr "arity-conflict");
        jfield "fact1" (jstr (Fact.to_string f1));
        jfield "fact2" (jstr (Fact.to_string f2)) ]
  | Part_overlap f ->
    jobj [ jfield "kind" (jstr "part-overlap"); jfield "fact" (jstr (Fact.to_string f)) ]
  | Duplicate_fact (f, l1, l2) ->
    jobj
      [ jfield "kind" (jstr "duplicate-fact");
        jfield "fact" (jstr (Fact.to_string f));
        jfield "line1" (string_of_int l1);
        jfield "line2" (string_of_int l2) ]
  | Missing_relation (r, a) ->
    jobj
      ([ jfield "kind" (jstr "missing-relation"); jfield "relation" (jstr r) ]
       @ match a with Some a -> [ jfield "atom" (jstr (Atom.to_string a)) ] | None -> [])
  | Query_db_arity { rel; query_arity; witness } ->
    jobj
      [ jfield "kind" (jstr "query-db-arity");
        jfield "relation" (jstr rel);
        jfield "query_arity" (string_of_int query_arity);
        jfield "witness" (jstr (Fact.to_string witness)) ]
  | Blowup { verdict; n_endo; plan_width } ->
    jobj
      ([ jfield "kind" (jstr "blowup");
         jfield "verdict" (jstr verdict);
         jfield "n_endo" (string_of_int n_endo) ]
       @ match plan_width with
       | Some w -> [ jfield "plan_width" (string_of_int w) ]
       | None -> [])

let to_json d =
  jobj
    ([ jfield "code" (jstr d.code);
       jfield "severity" (jstr (severity_to_string d.severity));
       jfield "message" (jstr d.message) ]
     @ (match d.span with
        | Some s ->
          [ jfield "span"
              (jobj
                 [ jfield "line" (string_of_int s.line);
                   jfield "col" (string_of_int s.col);
                   jfield "len" (string_of_int s.len) ]) ]
        | None -> [])
     @ (match d.certificate with
        | Some c -> [ jfield "certificate" (certificate_to_json c) ]
        | None -> []))

let list_to_json ds =
  jobj
    [ jfield "diagnostics" (jarr (List.map to_json ds));
      jfield "summary"
        (jobj
           [ jfield "errors" (string_of_int (count Error ds));
             jfield "warnings" (string_of_int (count Warning ds));
             jfield "hints" (string_of_int (count Hint ds)) ]) ]
