let () =
  Alcotest.run "rings"
    (Test_ring.suite @ Test_brackets.suite @ Test_policy.suite
   @ Test_call.suite @ Test_return.suite @ Test_effective_ring.suite
   @ Test_stack_rule.suite @ Test_word.suite @ Test_sdw.suite
   @ Test_hw_misc.suite @ Test_instr.suite @ Test_eff_addr.suite
   @ Test_exec.suite @ Test_cpu.suite @ Test_call_return_machine.suite
   @ Test_asm.suite @ Test_os.suite @ Test_security.suite @ Test_kernel.suite @ Test_system.suite @ Test_trace.suite @ Test_equivalence.suite @ Test_paging.suite @ Test_services.suite @ Test_timer.suite @ Test_fuzz.suite @ Test_disasm.suite @ Test_supervisor.suite @ Test_access.suite @ Test_revocation.suite @ Test_outward_edges.suite @ Test_directory.suite @ Test_scenario.suite @ Test_io.suite @ Test_parity.suite @ Test_traffic.suite @ Test_printers.suite @ Test_bare_metal.suite
   @ Test_assoc.suite @ Test_cache_coherence.suite
   @ Test_observability.suite @ Test_integration.suite @ Test_inject.suite
   @ Test_chaos.suite @ Test_snapshot.suite @ Test_serve.suite
   @ Test_arena.suite @ Test_capability.suite @ Test_golden_images.suite @ Test_codecs.suite)
