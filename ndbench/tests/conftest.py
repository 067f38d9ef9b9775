def pytest_configure(config):
    config.addinivalue_line("markers", "runs: executes the benchmark end to end")
