from run import load_library

load_library()
