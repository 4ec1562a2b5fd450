(* The Alcotest view of a query's canonical answer ({!Secyan.Query.answer}),
   shared by every test that holds an executor to the plaintext oracle. *)

let testable = Alcotest.testable Secyan.Query.pp_answer ( = )
